package stencil

import (
	"fmt"
	"testing"
)

// acceptCfg is the ISSUE acceptance configuration: a 6-GPU single-node job
// with two ranks, full capability ladder, real data.
func acceptCfg(adaptive bool) Config {
	return Config{
		Nodes:        1,
		RanksPerNode: 2,
		Domain:       Dim3{X: 24, Y: 18, Z: 12},
		Radius:       1,
		Quantities:   2,
		Caps:         CapsAll(),
		NodeAware:    true,
		RealData:     true,
		Adaptive:     adaptive,
	}
}

// peerTriadPair finds two subdomains owned by the same rank whose GPUs share
// a triad (and therefore an NVLink carrying PEERMEMCPY plans).
func peerTriadPair(t *testing.T, dd *DistributedDomain) (a, b int) {
	t.Helper()
	subs := dd.Subdomains()
	for i, s1 := range subs {
		for _, s2 := range subs[i+1:] {
			n1, g1 := s1.GPU()
			n2, g2 := s2.GPU()
			if n1 == n2 && s1.Rank() == s2.Rank() && g1 != g2 && g1/3 == g2/3 {
				return g1, g2
			}
		}
	}
	t.Fatal("no same-rank same-triad GPU pair")
	return 0, 0
}

// TestFaultAdaptiveRerouting is the end-to-end acceptance scenario through
// the public API: one NVLink dies at t=50us during a 6-GPU exchange; with
// Adaptive set, the affected PEERMEMCPY plans flip to STAGED, halos stay
// byte-identical, and the adaptive run beats the non-adaptive one on virtual
// time.
func TestFaultAdaptiveRerouting(t *testing.T) {
	fill := func(q, x, y, z int) float32 { return float32(q*1000000 + z*10000 + y*100 + x) }

	run := func(adaptive bool) (*DistributedDomain, *Stats) {
		probe, err := New(acceptCfg(adaptive))
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := peerTriadPair(t, probe)
		cfg := acceptCfg(adaptive)
		cfg.Fault = (&FaultScenario{Name: "nvkill"}).KillNVLink(50e-6, 0, g1, g2, 0)
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.Fill(fill)
		return dd, dd.Exchange(6)
	}

	ddA, statsA := run(true)
	ddN, statsN := run(false)

	if n := ddN.MethodBreakdown()[MethodPeer]; n == 0 {
		t.Fatal("configuration has no PEERMEMCPY plans; acceptance scenario is vacuous")
	}
	if len(ddA.AdaptLog()) == 0 {
		t.Fatal("adaptive run recorded no adaptation")
	}
	if len(ddA.FaultLog()) == 0 || len(ddN.FaultLog()) == 0 {
		t.Fatal("fault log empty")
	}
	// The adaptive run demoted the NVLink-crossing plans.
	flipped := 0
	for _, r := range ddA.AdaptLog() {
		if r.From == MethodPeer && r.To == MethodStaged {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("no PEERMEMCPY->STAGED demotion in adapt log")
	}
	if ddA.MethodBreakdown()[MethodStaged] <= ddN.MethodBreakdown()[MethodStaged] {
		t.Error("adaptive run shows no extra STAGED plans")
	}

	// Byte-identical halos in both modes.
	for name, dd := range map[string]*DistributedDomain{"adaptive": ddA, "non-adaptive": ddN} {
		if bad, detail := dd.VerifyHalos(fill); bad != 0 {
			t.Errorf("%s: %d bad halo cells: %s", name, bad, detail)
		}
	}

	// Adaptive strictly beats non-adaptive on total virtual time.
	var ta, tn float64
	for _, it := range statsA.Iterations {
		ta += float64(it)
	}
	for _, it := range statsN.Iterations {
		tn += float64(it)
	}
	if ta >= tn {
		t.Errorf("adaptive total %.6gs not better than non-adaptive %.6gs", ta, tn)
	}
}

// TestFaultDeterminism: the identical scenario and configuration yield
// identical iteration times and logs through the public API.
func TestFaultDeterminism(t *testing.T) {
	trace := func() string {
		probe, err := New(acceptCfg(true))
		if err != nil {
			t.Fatal(err)
		}
		g1, g2 := peerTriadPair(t, probe)
		cfg := acceptCfg(true)
		cfg.SendTimeout = 10e-3
		cfg.Fault = (&FaultScenario{Name: "det"}).
			KillNVLink(50e-6, 0, g1, g2, 300e-6).
			StraggleGPU(100e-6, 0, g1, 2, 200e-6)
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.Fill(func(q, x, y, z int) float32 { return float32(x + y + z + q) })
		stats := dd.Exchange(8)
		s := ""
		for _, r := range stats.FaultLog {
			s += fmt.Sprintf("F %.15g %s\n", r.At, r.Desc)
		}
		for _, r := range stats.AdaptEvents {
			s += fmt.Sprintf("A %.15g %d %s->%s\n", r.At, r.PlanID, r.From, r.To)
		}
		for _, it := range stats.Iterations {
			s += fmt.Sprintf("I %.15g\n", it)
		}
		return s
	}
	t1, t2 := trace(), trace()
	if t1 != t2 {
		t.Errorf("traces differ:\n%s\nvs\n%s", t1, t2)
	}
	if len(t1) == 0 {
		t.Error("empty trace")
	}
}

// TestPlanInfos: the snapshot covers every plan and is consistent with the
// method breakdown.
func TestPlanInfos(t *testing.T) {
	dd, err := New(acceptCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	infos := dd.PlanInfos()
	if len(infos) == 0 {
		t.Fatal("no plan infos")
	}
	counts := make(map[Method]int)
	for _, pi := range infos {
		counts[pi.Method]++
		if pi.Bytes <= 0 {
			t.Errorf("plan %d: nonpositive bytes", pi.ID)
		}
	}
	breakdown := dd.MethodBreakdown()
	for m, n := range breakdown {
		if counts[m] != n {
			t.Errorf("method %s: infos %d != breakdown %d", m, counts[m], n)
		}
	}
}
