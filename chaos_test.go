package stencil

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the headline acceptance test for the recovery layer: after an
// arbitrary schedule of permanent GPU/rank kills, the recovered run's final
// halos must be byte-identical to a fault-free run of the same iteration
// count, and the recovery telemetry must be deterministic — bit-identical
// virtual times across reruns and across payload worker counts.

const chaosIters = 6

// chaosCfg is the chaos job: 2 nodes x 2 ranks/node (12 GPUs, 3 per rank),
// all capabilities, real data so byte-identity is checkable, the adaptive
// monitor on (recovery must coexist with it), checkpoints every 2 iterations.
func chaosCfg(workers int) Config {
	return Config{
		Nodes:           2,
		RanksPerNode:    2,
		Domain:          Dim3{X: 24, Y: 24, Z: 12},
		Radius:          1,
		Quantities:      2,
		Caps:            CapsAll(),
		NodeAware:       true,
		RealData:        true,
		Adaptive:        true,
		CheckpointEvery: 2,
		Workers:         workers,
	}
}

func chaosFill(q, x, y, z int) float32 { return float32(q*1000000 + z*10000 + y*100 + x) }

// chaosSchedule derives a random-but-reproducible kill schedule from seed:
// one or two permanent losses (GPU or whole rank), each at a fraction of the
// healthy run's total virtual time so every kill lands mid-run.
func chaosSchedule(t *testing.T, seed int64) (*FaultScenario, string) {
	t.Helper()
	probe, err := New(chaosCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	probe.Fill(chaosFill)
	probe.Exchange(chaosIters)
	span := float64(probe.VirtualTime())

	rng := rand.New(rand.NewSource(seed))
	sc := &FaultScenario{Name: fmt.Sprintf("chaos-%d", seed)}
	var desc []string
	kills := 1 + rng.Intn(2)
	for k := 0; k < kills; k++ {
		at := span * (0.2 + 0.55*rng.Float64())
		if rng.Intn(2) == 0 {
			node, gpu := rng.Intn(2), rng.Intn(6)
			sc.KillGPU(at, node, gpu)
			desc = append(desc, fmt.Sprintf("gpu %d:%d@%.3gs", node, gpu, at))
		} else {
			rank := rng.Intn(4)
			sc.KillRank(at, rank)
			desc = append(desc, fmt.Sprintf("rank %d@%.3gs", rank, at))
		}
	}
	return sc, strings.Join(desc, ", ")
}

// chaosRun executes one recovered run and returns the domain, its stats, and
// its telemetry.
func chaosRun(t *testing.T, seed int64, workers int) (*DistributedDomain, *Stats, *Telemetry) {
	t.Helper()
	sc, desc := chaosSchedule(t, seed)
	cfg := chaosCfg(workers)
	cfg.Fault = sc
	cfg.Telemetry = NewTelemetry()
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: kill schedule: %s", seed, desc)
	dd.Fill(chaosFill)
	stats := dd.Exchange(chaosIters)
	return dd, stats, cfg.Telemetry
}

// spanFingerprint renders every span as name@[start,end] in end order —
// the determinism oracle for recovery timing.
func spanFingerprint(tel *Telemetry) string {
	var b strings.Builder
	for _, s := range tel.Spans() {
		fmt.Fprintf(&b, "%s@[%x,%x]\n", s.Name, s.Start, s.End)
	}
	return b.String()
}

func eventBytes(t *testing.T, tel *Telemetry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosRecovery fuzzes permanent-loss schedules (fixed seeds so CI can
// shard them) and asserts the recovery contract: byte-identical halos versus
// a fault-free run, a coherent recovery timeline, and bit-identical virtual
// times across reruns and across payload worker counts.
func TestChaosRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dd, stats, tel := chaosRun(t, seed, 0)

			// Headline correctness: final halos byte-identical to fault-free.
			if bad, detail := dd.VerifyHalos(chaosFill); bad != 0 {
				t.Errorf("%d bad halo cells after recovery: %s", bad, detail)
			}

			// The schedule really fired and really recovered.
			fatal := 0
			for _, r := range dd.FaultLog() {
				if r.Kind == "gpu-fail" || r.Kind == "rank-fail" {
					fatal++
				}
			}
			if fatal == 0 {
				t.Fatal("no fatal fault applied; chaos schedule is vacuous")
			}
			if stats.Rollbacks == 0 {
				t.Fatal("no rollback performed")
			}
			if stats.Checkpoints == 0 {
				t.Fatal("no checkpoint taken")
			}
			kinds := map[string]int{}
			for _, r := range dd.RecoveryLog() {
				kinds[r.Kind]++
			}
			for _, k := range []string{"checkpoint", "failure", "rollback", "resume"} {
				if kinds[k] == 0 {
					t.Errorf("recovery log has no %q record: %v", k, dd.RecoveryLog())
				}
			}

			// Telemetry spans match the recovery log.
			spans := map[string]int{}
			for _, s := range tel.Spans() {
				spans[s.Name]++
			}
			if spans["checkpoint"] != stats.Checkpoints {
				t.Errorf("%d checkpoint spans, stats say %d", spans["checkpoint"], stats.Checkpoints)
			}
			if spans["rollback"] != stats.Rollbacks {
				t.Errorf("%d rollback spans, stats say %d", spans["rollback"], stats.Rollbacks)
			}
			if stats.MigratedSubs > 0 && spans["migrate"] == 0 {
				t.Error("subdomains migrated but no migrate span")
			}

			// Bit-identical timing across a rerun and across worker counts.
			want, wantEv := spanFingerprint(tel), eventBytes(t, tel)
			for _, workers := range []int{0, 3} {
				dd2, _, tel2 := chaosRun(t, seed, workers)
				if got := spanFingerprint(tel2); got != want {
					t.Errorf("workers=%d: span fingerprint differs from first run", workers)
				}
				if got := eventBytes(t, tel2); !bytes.Equal(got, wantEv) {
					t.Errorf("workers=%d: event log differs from first run", workers)
				}
				if bad, _ := dd2.VerifyHalos(chaosFill); bad != 0 {
					t.Errorf("workers=%d: %d bad halo cells", workers, bad)
				}
			}
		})
	}
}

// chaosLossyRun layers a lossy, corrupting network (drop/corrupt/dup 0.2 on
// every node's NIC) on top of the fuzzed permanent-loss schedule, with a tight
// retransmission budget so some deliveries exhaust the attempt cap and the
// end-to-end verification layer has to repair them.
func chaosLossyRun(t *testing.T, seed int64, workers int) (*DistributedDomain, *Stats, *Telemetry) {
	t.Helper()
	sc, desc := chaosSchedule(t, seed)
	sc.Seed = uint64(seed)
	for n := 0; n < 2; n++ {
		sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
	}
	cfg := chaosCfg(workers)
	cfg.Fault = sc
	cfg.SendRetries = 2
	cfg.Telemetry = NewTelemetry()
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d: lossy chaos, kill schedule: %s", seed, desc)
	dd.Fill(chaosFill)
	stats := dd.Exchange(chaosIters)
	return dd, stats, cfg.Telemetry
}

// TestChaosLossy is the headline acceptance test for the delivery-fault layer:
// every inter-node link drops, corrupts, and duplicates messages at p=0.2
// while GPUs and ranks die permanently, yet the final halos are byte-identical
// to a fault-free run, no corrupted quadrant survives, and the whole run —
// protocol counters, spans, event log — is bit-identical across reruns and
// payload worker counts.
func TestChaosLossy(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, stats, tel := chaosRunLossyChecked(t, seed)

			want, wantEv := spanFingerprint(tel), eventBytes(t, tel)
			for _, workers := range []int{0, 3} {
				dd2, stats2, tel2 := chaosLossyRun(t, seed, workers)
				if stats2.Delivery != stats.Delivery {
					t.Errorf("workers=%d: protocol counters differ: %+v vs %+v",
						workers, stats2.Delivery, stats.Delivery)
				}
				if got := spanFingerprint(tel2); got != want {
					t.Errorf("workers=%d: span fingerprint differs from first run", workers)
				}
				if got := eventBytes(t, tel2); !bytes.Equal(got, wantEv) {
					t.Errorf("workers=%d: event log differs from first run", workers)
				}
				if bad, _ := dd2.VerifyHalos(chaosFill); bad != 0 {
					t.Errorf("workers=%d: %d bad halo cells", workers, bad)
				}
			}
		})
	}
}

// chaosRunLossyChecked runs the first lossy chaos run of a seed and asserts
// the scenario exercised everything it promises.
func chaosRunLossyChecked(t *testing.T, seed int64) (*DistributedDomain, *Stats, *Telemetry) {
	t.Helper()
	dd, stats, tel := chaosLossyRun(t, seed, 0)

	// Zero corrupted quadrants survive: halos byte-identical to fault-free.
	if bad, detail := dd.VerifyHalos(chaosFill); bad != 0 {
		t.Errorf("%d bad halo cells after lossy chaos: %s", bad, detail)
	}

	// Both fault families really fired.
	fatal := 0
	for _, r := range dd.FaultLog() {
		if r.Kind == "gpu-fail" || r.Kind == "rank-fail" {
			fatal++
		}
	}
	if fatal == 0 {
		t.Fatal("no fatal fault applied; chaos schedule is vacuous")
	}
	d := stats.Delivery
	if d.Drops == 0 || d.Corrupts == 0 || d.Dups == 0 {
		t.Fatalf("delivery faults not exercised: %+v", d)
	}
	if d.Retransmits == 0 {
		t.Error("no retransmissions under 20%% loss")
	}
	if d.Exhausted > 0 && stats.ReExchanges == 0 && stats.ForcedRepairs == 0 {
		t.Errorf("deliveries landed compromised (%d) but verification repaired nothing", d.Exhausted)
	}
	if stats.Rollbacks == 0 {
		t.Error("no rollback performed despite fatal kills")
	}
	return dd, stats, tel
}

// TestChaosLossyCompute combines delivery faults with interleaved compute:
// the coordinator's end-to-end verification checksums send regions at the
// safe point, so compute kernels (which mutate those regions) are gated on
// the safe-point barrier until verification completes — otherwise the scan
// compares post-compute send regions against pre-compute halos and
// re-exchanges post-compute bytes into neighbor halos mid-iteration. The
// oracle is exact: the whole domain — every interior cell AND every halo
// cell — must end byte-identical to a fault-free run of the same compute
// schedule, across payload worker counts.
func TestChaosLossyCompute(t *testing.T) {
	inc := func(s *Subdomain) {
		s.ForEachInterior(func(x, y, z int) {
			for q := 0; q < 2; q++ {
				s.Set(q, x, y, z, s.Get(q, x, y, z)+1)
			}
		})
	}
	run := func(lossy bool, workers int) (*DistributedDomain, *Stats) {
		cfg := chaosCfg(workers)
		cfg.CheckpointEvery = 0 // plain loop: delivery faults only, no recovery machinery
		if lossy {
			sc := &FaultScenario{Name: "lossy-compute", Seed: 13}
			for n := 0; n < 2; n++ {
				sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
			}
			cfg.Fault = sc
			cfg.SendRetries = 2
		}
		dd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dd.Fill(chaosFill)
		return dd, dd.Step(chaosIters, inc)
	}
	fingerprints := func(dd *DistributedDomain) []uint64 {
		fp := make([]uint64, 0, dd.NumSubdomains())
		for _, s := range dd.Subdomains() {
			fp = append(fp, s.sub.Dom.Fingerprint())
		}
		return fp
	}

	ref, _ := run(false, 0)
	want := fingerprints(ref)

	dd, stats := run(true, 0)
	d := stats.Delivery
	if d.Drops == 0 || d.Corrupts == 0 || d.Dups == 0 {
		t.Fatalf("delivery faults not exercised: %+v", d)
	}
	if d.Exhausted > 0 && stats.ReExchanges == 0 && stats.ForcedRepairs == 0 {
		t.Errorf("deliveries landed compromised (%d) but verification repaired nothing", d.Exhausted)
	}
	check := func(dd *DistributedDomain, label string) {
		got := fingerprints(dd)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: sub %v domain bytes diverge from the fault-free run",
					label, dd.Subdomains()[i].GlobalIndex())
			}
		}
	}
	check(dd, "workers=0")

	dd2, stats2 := run(true, 3)
	if stats2.Delivery != stats.Delivery {
		t.Errorf("workers=3: protocol counters differ: %+v vs %+v", stats2.Delivery, stats.Delivery)
	}
	check(dd2, "workers=3")
}

// TestChaosRecoveryCompute runs exchange+compute under a rank kill and
// checks that rollback replay neither loses nor double-applies compute: every
// interior cell must end at fill + steps exactly.
func TestChaosRecoveryCompute(t *testing.T) {
	sc := (&FaultScenario{Name: "compute-kill"})
	cfg := chaosCfg(0)
	cfg.Fault = sc
	// Time the kill off the healthy run so it lands mid-run.
	probe, err := New(chaosCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	probe.Fill(chaosFill)
	probe.Step(chaosIters, func(s *Subdomain) {
		s.ForEachInterior(func(x, y, z int) {
			for q := 0; q < 2; q++ {
				s.Set(q, x, y, z, s.Get(q, x, y, z)+1)
			}
		})
	})
	sc.KillRank(float64(probe.VirtualTime())*0.45, 1)

	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dd.Fill(chaosFill)
	stats := dd.Step(chaosIters, func(s *Subdomain) {
		s.ForEachInterior(func(x, y, z int) {
			for q := 0; q < 2; q++ {
				s.Set(q, x, y, z, s.Get(q, x, y, z)+1)
			}
		})
	})
	if stats.Rollbacks == 0 {
		t.Fatal("no rollback performed")
	}
	bad := 0
	for _, s := range dd.Subdomains() {
		s := s
		s.ForEachInterior(func(x, y, z int) {
			for q := 0; q < 2; q++ {
				want := chaosFill(q, s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z) + chaosIters
				if got := s.Get(q, x, y, z); got != want {
					if bad < 3 {
						t.Errorf("sub %v q%d (%d,%d,%d): got %g want %g",
							s.GlobalIndex(), q, x, y, z, got, want)
					}
					bad++
				}
			}
		})
	}
	if bad > 0 {
		t.Errorf("%d interior cells wrong after recovered compute replay", bad)
	}
}
