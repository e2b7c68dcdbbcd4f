package main

import (
	"testing"

	"github.com/nodeaware/stencil/internal/jobspec"
)

// A small round through a real server: both clients run concurrently, every
// job is served with its planned cache outcome, and the counters match.
func TestRunRoundSmall(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	var plan roundPlan
	for i, edge := range []string{"64", "72", "80", "88"} {
		s := jobspec.Spec{Nodes: 1, RanksPerNode: 6, Domain: edge, Radius: 1, Quantities: 1, Caps: "kernel", Iters: 1}
		plan.jobs = append(plan.jobs, plannedJob{kind: kindCold, base: -1, spec: s})
		plan.jobs = append(plan.jobs, plannedJob{kind: kindResultHit, base: 2 * i, spec: s})
	}
	hit := plan.jobs[0].spec
	hit.Iters = 2
	plan.jobs = append(plan.jobs, plannedJob{kind: kindSetupHit, base: 0, spec: hit})

	r := newReport()
	table := newCPUTable()
	rr, err := runRound(r, plan, table)
	if err != nil {
		t.Fatal(err)
	}
	checkServeOutputs(r, []*roundResult{rr})
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s: %s", c.name, c.detail)
		}
	}
	if r.attempted != len(plan.jobs) || r.failed != 0 {
		t.Errorf("attempted %d, failed %d; want %d, 0", r.attempted, r.failed, len(plan.jobs))
	}
	if want := [4]int64{4, 5, 1, 4}; rr.cache != want {
		t.Errorf("cache counters %v, want %v", rr.cache, want)
	}
	if len(rr.spans[kindCold]["engine-run"]) != 4 || len(rr.eventBytes) != 5 {
		t.Errorf("traced round fetched %d cold engine-run spans and %d event streams; want 4 and 5",
			len(rr.spans[kindCold]["engine-run"]), len(rr.eventBytes))
	}
}
