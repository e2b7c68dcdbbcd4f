package main

import (
	"reflect"
	"testing"
)

// The same seed gives the same specs in the same order and the same planned
// mix; another seed gives other specs but the same mix.
func TestPlanRoundDeterministic(t *testing.T) {
	a, b := planRound(42, 1), planRound(42, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("planRound(42, 1) differs between calls")
	}
	if reflect.DeepEqual(a, planRound(43, 1)) || reflect.DeepEqual(a, planRound(42, 2)) {
		t.Error("another seed or round should give another plan")
	}
	for _, p := range []roundPlan{a, planRound(43, 1), planRound(7, 0)} {
		cold, setupHits, resultHits := p.counts()
		if cold != coldPerRound || setupHits != setupHitsRound || resultHits != resultHitRound {
			t.Errorf("planned mix %d/%d/%d, want %d/%d/%d", cold, setupHits, resultHits,
				coldPerRound, setupHitsRound, resultHitRound)
		}
	}
}

// Every plan keeps the invariants the hit counts rest on: cold specs have
// distinct setups, every hit follows the cold job it repeats, a result hit
// is that job's exact spec, and a setup hit shares its setup but not its
// result.
func TestPlanRoundHits(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := planRound(seed, 0)
		setups := map[string]bool{}
		for i, j := range p.jobs {
			sh, err := j.spec.SetupHash()
			if err != nil {
				t.Fatal(err)
			}
			h, err := j.spec.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.spec.Validate(); err != nil {
				t.Fatalf("seed %d job %d: %v", seed, i, err)
			}
			if j.kind == kindCold {
				if setups[sh] {
					t.Errorf("seed %d job %d: cold spec repeats a setup", seed, i)
				}
				setups[sh] = true
				continue
			}
			if j.base >= i || p.jobs[j.base].kind != kindCold {
				t.Fatalf("seed %d job %d: base %d is not an earlier cold job", seed, i, j.base)
			}
			base := p.jobs[j.base].spec
			bh, _ := base.Hash()
			bsh, _ := base.SetupHash()
			if sh != bsh {
				t.Errorf("seed %d job %d: %s does not share its base's setup", seed, i, j.kind)
			}
			if (j.kind == kindResultHit) != (h == bh) {
				t.Errorf("seed %d job %d: %s, result hash equal to base: %v", seed, i, j.kind, h == bh)
			}
		}
	}
}
