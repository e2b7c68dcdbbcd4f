package exchange

import (
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/fault"
)

// TestOverlapGatingNeverEarly is the regression lock on the overlap pipeline's
// central invariant: a compute kernel can never observe a border cell before
// its quadrant's verified-arrival event. The compute payload inspects the
// live readiness ledger of its own iteration at execution time — if the
// ledger still exists (the coordinator has not passed the per-quadrant safe
// point), the subdomain's readiness fan-in and every touching plan's
// verified signal must already have fired. Removing the border kernel's
// readiness dependency makes this fail immediately.
func TestOverlapGatingNeverEarly(t *testing.T) {
	sc := &fault.Scenario{Name: "overlap-gate", Seed: 17}
	for n := 0; n < 2; n++ {
		sc.LossyNIC(0, n, 0.2, 0.2, 0.2)
	}
	o := lossyOpts(false)
	o.Overlap = true
	o.SendRetries = 2
	o.Fault = sc
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.verifier == nil {
		t.Fatal("delivery faults did not enable end-to-end verification")
	}
	fillGlobal(e)

	iterOf := make(map[*Sub]int)
	liveChecks := 0
	st := e.RunWithCompute(4, func(s *Sub) {
		// Workers is 0, so payloads execute sequentially in engine context:
		// reading the ledger here is safe and happens at the border kernel's
		// completion instant.
		it := iterOf[s]
		iterOf[s] = it + 1
		led, ok := e.overlapStates[it]
		if !ok {
			// The coordinator already passed the safe point (allVerified
			// fired), which subsumes this subdomain's gate.
			return
		}
		liveChecks++
		if !led.ready[s].Fired() {
			t.Errorf("iter %d: compute on sub %v ran before its readiness fan-in fired", it, s.Global)
		}
		for _, pl := range e.Plans {
			if pl.Src != s && pl.Dst != s {
				continue
			}
			if !led.verified[pl.ID].Fired() {
				t.Errorf("iter %d: compute on sub %v ran before plan %d (quadrant %v) was verified",
					it, s.Global, pl.ID, pl.Dir)
			}
			if !led.arrival[pl.ID].Fired() {
				t.Errorf("iter %d: compute on sub %v ran before plan %d arrived", it, s.Global, pl.ID)
			}
		}
	})
	if st.Delivery.Corrupts == 0 || st.Delivery.Drops == 0 {
		t.Errorf("faults not exercised: %+v", st.Delivery)
	}
	if liveChecks == 0 {
		t.Error("no compute payload ever ran against a live ledger; the gate was never load-bearing")
	}
}

// TestOverlapValidation locks the option-compatibility matrix; messages name
// the options by their jobspec wire names.
func TestOverlapValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		errSub string
	}{
		{"no-overlap", func(o *Options) { o.NoOverlap = true }, "no_overlap"},
		{"aggregate", func(o *Options) { o.AggregateRemote = true }, "aggregate_remote"},
		{"adapt-placement", func(o *Options) { o.Adaptive = true; o.AdaptPlacement = true }, "adapt_placement"},
		{"cuda-aware", func(o *Options) { o.CUDAAware = true }, "cuda_aware"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			o := smallOpts(2, CapsAll(), false)
			o.Overlap = true
			tc.mutate(&o)
			if _, err := New(o); err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("Overlap + %s: got %v, want error mentioning %q", tc.name, err, tc.errSub)
			}
		})
	}
}

// TestOverlapChannelsPersist asserts the persistent-channel property the
// pipeline's determinism rests on: a channel's sequence stream continues
// across iterations and across plan rebuilds (OpenChannel returns the same
// channel for the same key), so per-channel fault draws depend only on the
// channel's own message index.
func TestOverlapChannelsPersist(t *testing.T) {
	o := lossyOpts(false)
	o.Overlap = true
	o.Reliable = true
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	fillGlobal(e)
	e.Run(2)
	// Any inter-node staged plan rode a channel; after 2 iterations its next
	// sequence index must be 3 (counter survives the per-run state reset).
	found := false
	for _, pl := range e.Plans {
		if pl.Method != MethodStaged || pl.Src.NodeID == pl.Dst.NodeID {
			continue
		}
		found = true
		ch := e.W.OpenChannel(e.W.Rank(pl.Src.Rank), e.W.Rank(pl.Dst.Rank), pl.Tag)
		wantSeq := (uint64(pl.Tag+1) << 32) | 3
		if got := ch.Seq(); got != wantSeq {
			t.Errorf("plan %d channel seq after 2 iterations: got %#x want %#x", pl.ID, got, wantSeq)
		}
	}
	if !found {
		t.Fatal("no inter-node staged plan; channel persistence untested")
	}
	verifyHalos(t, e)
}
