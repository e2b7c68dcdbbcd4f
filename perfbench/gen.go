package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/jobspec"
)

// The serve-mix job generator. One round is a fixed proportion of three
// kinds of job:
//
//   - cold: a spec whose setup nobody has run yet (result and setup miss);
//   - setup hit: a cold spec's setup with another iteration count or a fault
//     scenario (result miss, placement served from the setup cache);
//   - result hit: an exact repeat of a cold spec (no engine run).
//
// Cold specs are stratified so every round, whatever its seed, carries about
// the same engine work: coldPerNodes specs for each node count 1..4, with
// iteration counts and capability rungs cycled through fixed lists and only
// the order, domain edge, and pairing drawn from the seed.
//
// The proportions are synthetic, not measured from traffic: as many result
// hits as cold jobs and a setup hit for every other cold spec, which meets
// the run's sample minimums (see minServeRounds). A mix derived from real
// traffic should replace them once such data exists.

type jobKind int

const (
	kindCold jobKind = iota
	kindSetupHit
	kindResultHit
)

func (k jobKind) String() string {
	switch k {
	case kindCold:
		return "cold"
	case kindSetupHit:
		return "setup-hit"
	}
	return "result-hit"
}

const (
	coldPerNodes   = 7 // cold specs per node count
	maxNodes       = 4 // node counts 1..maxNodes
	coldPerRound   = coldPerNodes * maxNodes
	setupHitsRound = maxNodes * ((coldPerNodes + 1) / 2) // every other cold spec of each node count
	resultHitRound = coldPerRound                        // one exact repeat per cold spec
	jobsPerRound   = coldPerRound + setupHitsRound + resultHitRound
	hitGap         = 6.0 // a hit follows its cold spec by at least this many slots
)

// itersByNodes keeps each cold engine run between about 10 and 160 ms on
// one core: larger jobs exchange fewer iterations.
var itersByNodes = map[int][]int{1: {3, 4, 5, 6}, 2: {2, 3, 4}, 3: {2, 3}, 4: {2}}

var capsLadder = []string{"remote", "colo", "peer", "kernel"}

// plannedJob is one request of a round.
type plannedJob struct {
	kind jobKind
	base int // index of the cold job a hit repeats; -1 for cold jobs
	spec jobspec.Spec
}

// roundPlan is one round's requests in submission order.
type roundPlan struct {
	jobs []plannedJob
}

// counts returns the planned number of jobs of each kind.
func (p roundPlan) counts() (cold, setupHits, resultHits int) {
	for _, j := range p.jobs {
		switch j.kind {
		case kindCold:
			cold++
		case kindSetupHit:
			setupHits++
		default:
			resultHits++
		}
	}
	return
}

// planRound generates round r of the run with the given seed; round -1 is
// the untimed warm-up. The same (seed, r) always yields the same plan.
func planRound(seed int64, r int) roundPlan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	type keyed struct {
		key float64
		job plannedJob
	}
	// Every other cold spec of each node count also gets a setup hit.
	type coldSpec struct {
		jobspec.Spec
		setupHit bool
	}
	var cold []coldSpec
	usedEdge := map[int]bool{}
	for nodes := 1; nodes <= maxNodes; nodes++ {
		iters := itersByNodes[nodes]
		for i := 0; i < coldPerNodes; i++ {
			// Distinct domains give every cold spec its own setup hash.
			edge := 192 + rng.Intn(1344)
			for usedEdge[edge] {
				edge = 192 + rng.Intn(1344)
			}
			usedEdge[edge] = true
			cold = append(cold, coldSpec{Spec: jobspec.Spec{
				Nodes:        nodes,
				RanksPerNode: 6,
				Domain:       fmt.Sprint(edge),
				Radius:       2,
				Quantities:   4,
				Caps:         capsLadder[(i+nodes)%len(capsLadder)],
				Iters:        iters[i%len(iters)],
				Tenant:       "bench",
			}, setupHit: i%2 == 0})
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })

	var all []keyed
	for i, s := range cold {
		all = append(all, keyed{float64(i), plannedJob{kind: kindCold, base: -1, spec: s.Spec}})
	}
	// Cold job i is submitted in slot i; its hits land hitGap or more slots
	// later, so a client rarely waits for the cold result to exist.
	later := func(i int) float64 { return float64(i) + hitGap + rng.Float64()*float64(coldPerRound)/2 }
	for i, s := range cold {
		all = append(all, keyed{later(i), plannedJob{kind: kindResultHit, base: i, spec: s.Spec}})
	}
	for i, s := range cold {
		if !s.setupHit {
			continue
		}
		s.setupHit = false
		if s.Iters%2 == 0 {
			s.Iters++
		} else {
			s.Scenario = (&fault.Scenario{Name: "degraded-nic"}).DegradeNIC(0, 0, 0.5)
		}
		all = append(all, keyed{later(i), plannedJob{kind: kindSetupHit, base: i, spec: s.Spec}})
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].key < all[b].key })

	// Renumber bases from cold-list order to submission order.
	pos := make([]int, coldPerRound)
	for p, k := range all {
		if k.job.kind == kindCold {
			pos[int(k.key)] = p
		}
	}
	plan := roundPlan{jobs: make([]plannedJob, len(all))}
	for p, k := range all {
		j := k.job
		if j.base >= 0 {
			j.base = pos[j.base]
		}
		plan.jobs[p] = j
	}
	return plan
}
