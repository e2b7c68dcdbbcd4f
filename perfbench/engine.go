package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/figures"
	"github.com/nodeaware/stencil/internal/halo"
	"github.com/nodeaware/stencil/internal/part"
)

// engineWorkload is a workload that drives the exchange library directly:
// one job is exchange.New (setup, phases 1-3) followed by Exchange(iters).
type engineWorkload struct {
	opts  func() exchange.Options
	iters int
	// realData jobs fill every subdomain from the seed before the run and
	// check every halo cell after it.
	realData bool
}

const gpusPerNode = 6 // Summit nodes, the default machine

// ladderRung is the fig12b +kernel configuration at the given size.
func ladderRung(nodes, edge int) exchange.Options {
	return exchange.Options{
		Nodes:        nodes,
		RanksPerNode: 6,
		Domain:       part.Dim3{X: edge, Y: edge, Z: edge},
		Radius:       2,
		Quantities:   4,
		ElemSize:     4,
		Caps:         exchange.CapsAll(),
		NodeAware:    true,
	}
}

// lossyScenarioSeed fixes halo-lossy's delivery-fault draws, so its
// protocol counters and virtual time are the same on every run.
const lossyScenarioSeed = 7

var engineWorkloads = map[string]engineWorkload{
	"weak64": {
		opts:  func() exchange.Options { return ladderRung(64, figures.CubeEdge(64*gpusPerNode)) },
		iters: 3,
	},
	"exact32": {
		opts:  func() exchange.Options { return ladderRung(32, figures.CubeEdge(32*gpusPerNode)) },
		iters: 1,
	},
	"halo-lossy": {
		opts: func() exchange.Options {
			o := ladderRung(8, 192)
			o.RealData = true
			o.Reliable = true
			o.VerifyExchange = true
			sc := &fault.Scenario{Name: "lossy-nics", Seed: lossyScenarioSeed}
			for n := 0; n < o.Nodes; n++ {
				sc.LossyNIC(0, n, 0.05, 0.02, 0.02)
			}
			o.Fault = sc
			return o
		},
		iters:    5,
		realData: true,
	},
}

// references holds each engine job's expected virtual exchange time
// (Stats.Min, in ms, as the figures report it), keyed by workload name and,
// for the attribution re-run, "exact32/horizon1". The simulator is
// deterministic, so a change that only touches host code keeps these
// bit-identical; a deliberate model change updates the file.
//
//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]float64, error) {
	var refs map[string]float64
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// engineCounts are the deterministic work counters of one job. Two runs of
// the same job must agree on every field.
type engineCounts struct {
	events, scheduled, spawned uint64
	peakQueue                  int
	messages, retransmits      int
	nacks, dedups              int
	reexchanges, verifyRounds  int
	bytesPerIter               int64
	virtualMS                  float64
}

// engineJob is the measurement of one job.
type engineJob struct {
	run             span
	placement, plan time.Duration
	allocBytes      uint64
	mallocs, gcs    uint64
	gcPause         time.Duration
	counts          engineCounts
	badHaloCells    int
	subSize         part.Dim3
}

// runEngineJob builds and runs one job. With prof set, the exchange (and
// only the exchange) runs under the CPU profiler.
func runEngineJob(w engineWorkload, opts exchange.Options, seed int64, prof *cpuTable) (*engineJob, error) {
	runtime.GC() // start every job from the same heap, without the last job's garbage
	e, err := exchange.New(opts)
	if err != nil {
		return nil, fmt.Errorf("exchange.New: %w", err)
	}
	if w.realData {
		fillDomain(e, seed)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var st *exchange.Stats
	stop := startSpan()
	if prof != nil {
		if err := prof.profiled(func() { st = e.Run(w.iters) }); err != nil {
			return nil, err
		}
	} else {
		st = e.Run(w.iters)
	}
	run := stop()
	runtime.ReadMemStats(&m1)

	c := e.Eng.Counts()
	j := &engineJob{
		run:        run,
		placement:  e.SetupPlacementWall,
		plan:       e.SetupPlanWall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcs:        uint64(m1.NumGC - m0.NumGC),
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		subSize:    e.Subs[0].Dom.Size,
		counts: engineCounts{
			events:       c.Executed,
			scheduled:    c.Scheduled,
			spawned:      c.Spawned,
			peakQueue:    c.PeakQueue,
			messages:     st.Delivery.Messages,
			retransmits:  st.Delivery.Retransmits,
			nacks:        st.Delivery.Nacks,
			dedups:       st.Delivery.Dedups,
			reexchanges:  st.ReExchanges,
			verifyRounds: st.VerifyRounds,
			bytesPerIter: st.TotalBytes,
			virtualMS:    float64(st.Min()) * 1e3,
		},
	}
	if w.realData {
		j.badHaloCells = verifyHalos(e, seed)
	}
	return j, nil
}

// cellValue is the seeded initial value of quantity q at global cell
// (x, y, z): a mixing hash, so a halo cell landing in the wrong place or
// with flipped bits cannot match by accident.
func cellValue(seed int64, q, x, y, z int) uint32 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(q)<<48 ^ uint64(x)<<32 ^ uint64(y)<<16 ^ uint64(z)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// fillDomain writes cellValue into every interior cell of every subdomain.
func fillDomain(e *exchange.Exchanger, seed int64) {
	for _, s := range e.Subs {
		origin, size := e.Hier.Subdomain(s.NodeIdx, s.GPUIdx)
		for q := 0; q < s.Dom.Quantities; q++ {
			for z := 0; z < size.Z; z++ {
				for y := 0; y < size.Y; y++ {
					for x := 0; x < size.X; x++ {
						v := cellValue(seed, q, origin.X+x, origin.Y+y, origin.Z+z)
						binary.LittleEndian.PutUint32(s.Dom.At(q, x, y, z), v)
					}
				}
			}
		}
	}
}

// verifyHalos counts halo cells whose bytes differ from the value the
// owning neighbor was filled with, under periodic wrap (the library's
// boundary condition here).
func verifyHalos(e *exchange.Exchanger, seed int64) int {
	d := e.Opts.Domain
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	bad := 0
	for _, s := range e.Subs {
		origin, size := e.Hier.Subdomain(s.NodeIdx, s.GPUIdx)
		r := s.Dom.Radius
		for q := 0; q < s.Dom.Quantities; q++ {
			for z := -r; z < size.Z+r; z++ {
				for y := -r; y < size.Y+r; y++ {
					inYZ := y >= 0 && y < size.Y && z >= 0 && z < size.Z
					for x := -r; x < size.X+r; x++ {
						if inYZ && x == 0 {
							x = size.X // skip the interior run of this row
						}
						want := cellValue(seed, q, wrap(origin.X+x, d.X), wrap(origin.Y+y, d.Y), wrap(origin.Z+z, d.Z))
						if binary.LittleEndian.Uint32(s.Dom.At(q, x, y, z)) != want {
							bad++
						}
					}
				}
			}
		}
	}
	return bad
}

// partitionMS is the median wall time of one part.NewHier call, in ms,
// cycling through args until every one has been timed and 50 ms have
// passed.
func partitionMS(args []hierArgs) (float64, error) {
	var xs []float64
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < len(args) || time.Now().Before(deadline); i++ {
		a := args[i%len(args)]
		t := time.Now()
		if _, err := part.NewHier(a.domain, a.nodes, gpusPerNode); err != nil {
			return 0, fmt.Errorf("part.NewHier: %w", err)
		}
		xs = append(xs, float64(time.Since(t))/1e6)
	}
	return median(xs), nil
}

// haloRates times Pack, Unpack, and RegionChecksum over all 26 directions
// of one real subdomain of the given size. The rates are computed bytes
// (halo bytes moved or hashed per second), not measured memory traffic.
func haloRates(size part.Dim3, radius, quantities, elemSize int) (pack, unpack, checksum float64) {
	d := halo.NewDomain(size, radius, quantities, elemSize, true)
	dirs := part.Directions26()
	buf := make([]byte, d.MaxHaloBytes(dirs))
	rate := func(op func(dir part.Dim3) int64) float64 {
		var bytes int64
		t := time.Now()
		for time.Since(t) < 150*time.Millisecond {
			for _, dir := range dirs {
				bytes += op(dir)
			}
		}
		return float64(bytes) / time.Since(t).Seconds() / 1e9
	}
	pack = rate(func(dir part.Dim3) int64 { return d.Pack(buf, dir) })
	unpack = rate(func(dir part.Dim3) int64 { return d.Unpack(buf, dir) })
	checksum = rate(func(dir part.Dim3) int64 {
		d.RegionChecksum(d.SendRegion(dir))
		return d.HaloBytes(dir)
	})
	return pack, unpack, checksum
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// minEngineJobs is the fewest jobs a run measures, however slow the host:
// a median of fewer is one job's noise.
const minEngineJobs = 3

// setupsPerJob is how many bare exchange.New calls an untraced run times
// before each job for the setup_s median. Spreading them over the run, as
// the jobs are, lets the median average the host's load over the run
// rather than catch one moment of it.
const setupsPerJob = 2

// timeSetup times one bare exchange.New from a collected heap, the state
// every job's set-up starts from.
func timeSetup(opts exchange.Options) (span, error) {
	runtime.GC()
	stop := startSpan()
	if _, err := exchange.New(opts); err != nil {
		return span{}, fmt.Errorf("exchange.New: %w", err)
	}
	return stop(), nil
}

// runJobs runs jobs until the budget would be exceeded by one more (but at
// least min), checking each against the reference and the halo oracle, and
// times setups bare set-ups before each job.
func runJobs(r *report, name string, w engineWorkload, opts exchange.Options, ref float64, seed int64,
	budget time.Duration, min, setups int, prof *cpuTable) ([]*engineJob, []span, error) {
	var jobs []*engineJob
	var setupSpans []span
	start := time.Now()
	for {
		if n := len(jobs); n >= min {
			perJob := time.Since(start) / time.Duration(n)
			if time.Since(start)+perJob > budget {
				break
			}
		}
		for i := 0; i < setups; i++ {
			sp, err := timeSetup(opts)
			if err != nil {
				return nil, nil, err
			}
			setupSpans = append(setupSpans, sp)
		}
		j, err := runEngineJob(w, opts, seed, prof)
		if err != nil {
			return nil, nil, err
		}
		r.attempted++
		ok := j.counts.virtualMS == ref && j.badHaloCells == 0
		if !ok {
			r.failed++
			r.check(name+"-job", false, "job %d: virtual %.17g ms (reference %.17g), %d bad halo cells",
				len(jobs), j.counts.virtualMS, ref, j.badHaloCells)
		}
		jobs = append(jobs, j)
	}
	return jobs, setupSpans, nil
}

func jobMedian(jobs []*engineJob, f func(*engineJob) float64) float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return median(xs)
}

// runEngine measures one engine workload.
func runEngine(w engineWorkload, cfg runConfig) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	ref, ok := refs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("reference.json has no entry for %s", cfg.workload)
	}
	opts := w.opts()
	r := newReport()
	note := fmt.Sprintf("%d nodes x %d ranks, domain %v, %d iterations, %s", opts.Nodes, opts.RanksPerNode,
		opts.Domain, w.iters, opts.CapsString())

	if !cfg.trace {
		jobs, setups, err := runJobs(r, cfg.workload, w, opts, ref, cfg.seed, cfg.seconds, minEngineJobs, setupsPerJob, nil)
		if err != nil {
			return nil, err
		}
		var runs []span
		for _, j := range jobs {
			runs = append(runs, j.run)
		}
		setup, run := spanMedians(setups), spanMedians(runs)
		r.metrics["setup_s"] = setup.cpu
		r.metrics["run_cpu_s"] = run.cpu
		r.metrics["run_wall_s"] = run.unstolen
		r.show("setup_wall_s", "s", setup.wall, "median wall time of exchange.New")
		r.show("run_raw_wall_s", "s", run.wall, "median wall time of Exchange, steal included")
		r.show("run_steal_share", "1", run.stealShare, "median steal / (CPU + steal) during Exchange")
		r.metrics["alloc_mb"] = jobMedian(jobs, func(j *engineJob) float64 { return float64(j.allocBytes) / 1e6 })
		r.metrics["peak_rss_mb"] = peakRSSMB()
		r.show("virtual_exchange_ms", "ms", jobs[0].counts.virtualMS, "(Stats.Min; deterministic)")
		r.show("failed_frac", "1", float64(r.failed)/float64(r.attempted), "")
		r.show("jobs", "count", float64(len(jobs)), note)
		checkOutputs(r, cfg.workload, w, ref)
		return r, nil
	}

	// Traced run: untraced jobs first (the overhead baseline and the
	// counter reference), then as many jobs again under the CPU profiler.
	r.zeroLayers()
	plain, _, err := runJobs(r, cfg.workload, w, opts, ref, cfg.seed, cfg.seconds/2, 2, 0, nil)
	if err != nil {
		return nil, err
	}
	table := newCPUTable()
	traced, _, err := runJobs(r, cfg.workload, w, opts, ref, cfg.seed, 0, len(plain), 0, table)
	if err != nil {
		return nil, err
	}
	r.setCPU(table, len(traced))
	all := append(append([]*engineJob(nil), plain...), traced...)
	same := true
	for _, j := range all {
		same = same && j.counts == all[0].counts
	}
	r.check("counter-determinism", same, "%d untraced and %d traced jobs report identical counters", len(plain), len(traced))

	plainRun := jobMedian(plain, func(j *engineJob) float64 { return j.run.cpu.Seconds() })
	tracedRun := jobMedian(traced, func(j *engineJob) float64 { return j.run.cpu.Seconds() })
	c := all[0].counts
	m := r.metrics
	m["trace.run_cpu_s"] = tracedRun
	m["trace.overhead_ratio"] = tracedRun / plainRun
	if m["part.partition_ms"], err = partitionMS([]hierArgs{{opts.Domain, opts.Nodes}}); err != nil {
		return nil, err
	}
	m["placement.place_ms"] = jobMedian(all, func(j *engineJob) float64 { return ms(j.placement) })
	m["exchange.plan_ms"] = jobMedian(all, func(j *engineJob) float64 { return ms(j.plan) })
	m["sim.events"] = float64(c.events)
	m["sim.scheduled"] = float64(c.scheduled)
	m["sim.spawned"] = float64(c.spawned)
	m["sim.peak_queue"] = float64(c.peakQueue)
	m["sim.ns_per_event"] = plainRun / float64(c.events) * 1e9
	m["runtime.mallocs"] = jobMedian(plain, func(j *engineJob) float64 { return float64(j.mallocs) })
	m["runtime.gc_cycles"] = jobMedian(plain, func(j *engineJob) float64 { return float64(j.gcs) })
	m["runtime.gc_pause_ms"] = jobMedian(plain, func(j *engineJob) float64 { return ms(j.gcPause) })
	m["exchange.virtual_ms"] = c.virtualMS
	m["exchange.bytes_per_iter"] = float64(c.bytesPerIter)
	m["exchange.reexchanges"] = float64(c.reexchanges)
	m["exchange.verify_rounds"] = float64(c.verifyRounds)
	m["mpi.messages"] = float64(c.messages)
	m["mpi.retransmits"] = float64(c.retransmits)
	m["mpi.nacks"] = float64(c.nacks)
	m["mpi.dedups"] = float64(c.dedups)
	if w.realData {
		m["halo.pack_gb_s"], m["halo.unpack_gb_s"], m["halo.checksum_gb_s"] =
			haloRates(all[0].subSize, opts.Radius, opts.Quantities, opts.ElemSize)
	}
	r.show("jobs", "count", float64(len(all)), note)

	if cfg.workload == "exact32" {
		if err := attribution(r, w, opts, refs, cfg, len(traced), tracedRun, table); err != nil {
			return nil, err
		}
	}
	checkOutputs(r, cfg.workload, w, ref)
	return r, nil
}

// checkOutputs summarises the per-job output checks runJobs made.
func checkOutputs(r *report, name string, w engineWorkload, ref float64) {
	halos := ""
	if w.realData {
		halos = ", every halo cell intact"
	}
	r.check("outputs", r.failed == 0, "%d of %d jobs match their reference virtual exchange time (%s: %.17g ms)%s",
		r.attempted-r.failed, r.attempted, name, ref, halos)
}

// attribution re-runs exact32 traced with a one-hop fairness horizon, a
// known change confined to the flownet waterfill, and checks that the
// per-layer table puts at least three quarters of the fall in run time in
// flownet.
func attribution(r *report, w engineWorkload, opts exchange.Options, refs map[string]float64, cfg runConfig,
	n int, exactRun float64, exact *cpuTable) error {
	opts.FairnessHorizon = 1
	table := newCPUTable()
	jobs, _, err := runJobs(r, "exact32/horizon1", w, opts, refs["exact32/horizon1"], cfg.seed, 0, n, 0, table)
	if err != nil {
		return err
	}
	horizonRun := jobMedian(jobs, func(j *engineJob) float64 { return j.run.cpu.Seconds() })
	runFall := exactRun - horizonRun
	flowFall := (exact.seconds["flownet"] - table.seconds["flownet"]) / float64(n)
	r.show("attribution.run_fall_s", "s", runFall, fmt.Sprintf("traced run_cpu_s %.3f -> %.3f s with FairnessHorizon 1", exactRun, horizonRun))
	r.show("attribution.flownet_fall_s", "s", flowFall, "fall in flownet.cpu_s per job")
	r.check("attribution", runFall > 0 && flowFall >= 0.75*runFall,
		"flownet.cpu_s fell %.3f s of run_cpu_s's %.3f s fall (need >= 75%%)", flowFall, runFall)
	return nil
}

// hierArgs are the arguments of one part.NewHier call.
type hierArgs struct {
	domain part.Dim3
	nodes  int
}
