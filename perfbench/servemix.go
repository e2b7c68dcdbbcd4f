package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/serve"
)

// serve-mix drives an in-process stencilserve over loopback HTTP. Every
// round starts a fresh server on a fresh data directory (so the journal
// fsync and cache spill are on the path, and every planned hit is a hit
// exactly), then runs a closed loop of serveClients clients through the
// round's plan: each client submits with ?wait=1, fetches the result, and
// only then takes the next job, as the sweep scripts that call the service
// do.

const (
	serveWorkers = 2 // engine workers, one per core of the reference host
	serveClients = 2
	// minServeRounds guarantees at least 100 cold jobs and 100 result hits
	// per run, so each latency p90 has ten samples beyond it.
	minServeRounds = 4
	// setupsPerRound is how many bare server start-ups an untraced run
	// times before each round for the setup_s median, spread over the run
	// as the rounds are.
	setupsPerRound = 7
	// requestTimeout fails a request rather than letting a hung server
	// hold the run past its time limit; the slowest job takes well under a
	// second.
	requestTimeout = 30 * time.Second
)

// liveServer is one started stencilserve with its HTTP listener.
type liveServer struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client
}

// startServer opens a server on a fresh data directory, serves it on a
// loopback port, and returns once /readyz answers; the returned span is
// that whole set-up.
func startServer() (*liveServer, span, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, span{}, err
	}
	stop := startSpan()
	srv, err := serve.Open(serve.Config{Workers: serveWorkers, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, span{}, fmt.Errorf("serve.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(dir)
		return nil, span{}, err
	}
	ls := &liveServer{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
			Timeout:   requestTimeout,
		},
	}
	go func() { ls.served <- ls.http.Serve(ln) }()
	resp, err := ls.client.Get(ls.base + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	setup := stop()
	if err != nil {
		ls.close()
		return nil, span{}, err
	}
	return ls, setup, nil
}

// close stops the listener, drains the server, and removes its data.
func (ls *liveServer) close() error {
	ls.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Drain()
	if rerr := os.RemoveAll(ls.dir); err == nil {
		err = rerr
	}
	return err
}

// get fetches one URL path and returns the body of a 200 response.
func (ls *liveServer) get(path string) ([]byte, error) {
	resp, err := ls.client.Get(ls.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	id      string
	latency time.Duration // submit to result body read
	cache   string        // the status's cache label: "", "setup", or "result"
	result  []byte
	err     error
}

// submit runs one job through the API: POST with ?wait=1, then GET result.
func (ls *liveServer) submit(spec []byte) jobOutcome {
	t0 := time.Now()
	resp, err := ls.client.Post(ls.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jobOutcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jobOutcome{err: err}
	}
	if resp.StatusCode != http.StatusAccepted {
		return jobOutcome{err: fmt.Errorf("submit: %s: %s", resp.Status, body)}
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return jobOutcome{err: fmt.Errorf("submit: %w", err)}
	}
	if st.State != serve.StateDone {
		return jobOutcome{id: st.ID, err: fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)}
	}
	result, err := ls.get("/v1/jobs/" + st.ID + "/result")
	return jobOutcome{id: st.ID, latency: time.Since(t0), cache: st.Cache, result: result, err: err}
}

// roundResult is one round's measurements.
type roundResult struct {
	run      span
	alloc    uint64
	outcomes []jobOutcome
	cache    [4]int64 // result hits, result misses, setup hits, setup misses
	countsOK bool     // cache equals the plan's mix
	journal  serve.JournalStats
	// Traced rounds only: span durations by kind of job and span name, in
	// ms, and the byte size of each result miss's event stream.
	spans      map[jobKind]map[string][]float64
	eventBytes []float64
}

// runRound starts a server, runs the plan through it, checks every job, and
// shuts the server down. With prof set, the client loop runs under the CPU
// profiler and each job's trace and event stream are fetched afterwards.
func runRound(r *report, plan roundPlan, prof *cpuTable) (*roundResult, error) {
	bodies := make([][]byte, len(plan.jobs))
	for i, j := range plan.jobs {
		b, err := json.Marshal(j.spec)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	ls, _, err := startServer()
	if err != nil {
		return nil, err
	}
	rr := &roundResult{outcomes: make([]jobOutcome, len(plan.jobs))}

	loop := func() {
		done := make([]chan struct{}, len(plan.jobs))
		for i := range done {
			done[i] = make(chan struct{})
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(plan.jobs) {
						return
					}
					if b := plan.jobs[i].base; b >= 0 {
						<-done[b] // a hit needs its cold job finished first
					}
					rr.outcomes[i] = ls.submit(bodies[i])
					close(done[i])
				}
			}()
		}
		wg.Wait()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := startSpan()
	if prof != nil {
		err = prof.profiled(loop)
	} else {
		loop()
	}
	rr.run = stop()
	runtime.ReadMemStats(&m1)
	rr.alloc = m1.TotalAlloc - m0.TotalAlloc
	if err == nil && prof != nil {
		err = fetchTraces(ls, plan, rr)
	}
	rh, rm, sh, sm := ls.srv.CacheStats()
	rr.cache = [4]int64{rh, rm, sh, sm}
	rr.journal = ls.srv.JournalStats()
	if cerr := ls.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	checkRound(r, plan, rr)
	return rr, nil
}

// checkRound counts failed jobs and checks every job's cache label, every
// result hit's bytes, and the server's cache counters against the plan.
func checkRound(r *report, plan roundPlan, rr *roundResult) {
	rr.countsOK = true
	wantLabel := map[jobKind]string{kindCold: "", kindSetupHit: "setup", kindResultHit: "result"}
	for i, j := range plan.jobs {
		o := rr.outcomes[i]
		r.attempted++
		var bad error
		switch {
		case o.err != nil:
			bad = o.err
		case o.cache != wantLabel[j.kind]:
			bad = fmt.Errorf("planned %s, served with cache label %q", j.kind, o.cache)
		case j.kind == kindResultHit && !bytes.Equal(o.result, rr.outcomes[j.base].result):
			bad = fmt.Errorf("result hit differs from its cold result (job %s)", rr.outcomes[j.base].id)
		case len(o.result) == 0:
			bad = errors.New("empty result")
		}
		if bad != nil {
			r.failed++
			if r.failed <= 5 {
				r.check("job-"+o.id, false, "%s job %d: %v", j.kind, i, bad)
			}
		}
	}
	cold, setupHits, resultHits := plan.counts()
	want := [4]int64{int64(resultHits), int64(cold + setupHits), int64(setupHits), int64(cold)}
	if rr.cache != want {
		rr.countsOK = false
		r.check("planned-cache-counts", false,
			"server counted result hits/misses, setup hits/misses %v, plan says %v", rr.cache, want)
	}
}

// fetchTraces reads every job's wall-clock trace and every result miss's
// event stream from the still-running server.
func fetchTraces(ls *liveServer, plan roundPlan, rr *roundResult) error {
	rr.spans = map[jobKind]map[string][]float64{}
	for i, j := range plan.jobs {
		o := rr.outcomes[i]
		if o.err != nil {
			continue
		}
		body, err := ls.get("/v1/jobs/" + o.id + "/trace")
		if err != nil {
			return err
		}
		var tr serve.JobTrace
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("trace of %s: %w", o.id, err)
		}
		byName := rr.spans[j.kind]
		if byName == nil {
			byName = map[string][]float64{}
			rr.spans[j.kind] = byName
		}
		for _, s := range tr.Spans {
			byName[s.Name] = append(byName[s.Name], s.DurationSeconds*1e3)
		}
		if j.kind != kindResultHit {
			ev, err := ls.get("/v1/jobs/" + o.id + "/events")
			if err != nil {
				return err
			}
			rr.eventBytes = append(rr.eventBytes, float64(len(ev)))
		}
	}
	return nil
}

// serveMix measures the serve-mix workload.
func serveMix(cfg runConfig) (*report, error) {
	r := newReport()
	if !cfg.trace {
		start := time.Now()
		// One untimed round first: it grows the heap and warms the
		// process, whose first second runs start-ups up to three times
		// slower than the rest of the run does. Its jobs are still checked.
		if _, err := runRound(r, planRound(cfg.seed, -1), nil); err != nil {
			return nil, err
		}
		var setups []span
		var rounds []*roundResult
		timed := time.Now()
		for round := 0; ; round++ {
			if n := len(rounds); n >= minServeRounds {
				perRound := time.Since(timed) / time.Duration(n)
				if time.Since(start)+perRound > cfg.seconds {
					break
				}
			}
			for i := 0; i < setupsPerRound; i++ {
				// Collect the last round's garbage first, so that no
				// collection runs inside the span.
				runtime.GC()
				ls, setup, err := startServer()
				if err != nil {
					return nil, err
				}
				if err := ls.close(); err != nil {
					return nil, err
				}
				setups = append(setups, setup)
			}
			rr, err := runRound(r, planRound(cfg.seed, round), nil)
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, rr)
		}
		var runs []span
		var allocs []float64
		for _, rr := range rounds {
			runs = append(runs, rr.run)
			allocs = append(allocs, float64(rr.alloc)/1e6)
		}
		setup, run := spanMedians(setups), spanMedians(runs)
		r.metrics["setup_s"] = setup.cpu
		r.metrics["run_cpu_s"] = run.cpu
		r.metrics["run_wall_s"] = run.unstolen
		r.metrics["alloc_mb"] = median(allocs)
		r.show("setup_wall_s", "s", setup.wall, "median wall time of serve.Open to /readyz")
		r.show("run_raw_wall_s", "s", run.wall, "median wall time of a round, first submit to last result, steal included")
		r.show("run_steal_share", "1", run.stealShare, "median steal / (CPU + steal) during a round")
		r.metrics["peak_rss_mb"] = peakRSSMB()
		for _, f := range latencyFigures(r, rounds) {
			r.show(f.name, f.unit, f.value, f.note)
		}
		r.show("failed_frac", "1", float64(r.failed)/float64(r.attempted), "")
		r.show("rounds", "count", float64(len(rounds)), fmt.Sprintf("%d jobs each: %d cold, %d setup hits, %d result hits",
			jobsPerRound, coldPerRound, setupHitsRound, resultHitRound))
		checkServeOutputs(r, rounds)
		return r, nil
	}

	// Traced run: an untraced warm-up round, minServeRounds untraced
	// rounds, then the same plans again traced. Same plans, so every cache
	// counter must repeat exactly.
	r.zeroLayers()
	if _, err := runRound(r, planRound(cfg.seed, -1), nil); err != nil {
		return nil, err
	}
	var plain, traced []*roundResult
	table := newCPUTable()
	for pass, prof := range []*cpuTable{nil, table} {
		for round := 0; round < minServeRounds; round++ {
			rr, err := runRound(r, planRound(cfg.seed, round), prof)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				plain = append(plain, rr)
			} else {
				traced = append(traced, rr)
			}
		}
	}
	r.setCPU(table, len(traced))
	same := true
	for i := range plain {
		same = same && plain[i].cache == traced[i].cache
		for k := range plain[i].outcomes {
			same = same && plain[i].outcomes[k].cache == traced[i].outcomes[k].cache
		}
	}
	r.check("counter-determinism", same, "%d untraced and %d traced rounds of the same plans served identical cache counters and labels",
		len(plain), len(traced))

	m := r.metrics
	var plainRuns, tracedRuns []span
	for i := range plain {
		plainRuns = append(plainRuns, plain[i].run)
		tracedRuns = append(tracedRuns, traced[i].run)
	}
	plainCPU, tracedCPU := spanMedians(plainRuns).cpu, spanMedians(tracedRuns).cpu
	m["trace.run_cpu_s"] = tracedCPU
	m["trace.overhead_ratio"] = tracedCPU / plainCPU
	for _, f := range latencyFigures(r, plain) {
		m["serve."+f.name] = f.value
	}

	spans := map[jobKind]map[string][]float64{}
	var eventBytes []float64
	var syncs, records int64
	for _, rr := range traced {
		for k, byName := range rr.spans {
			if spans[k] == nil {
				spans[k] = map[string][]float64{}
			}
			for name, xs := range byName {
				spans[k][name] = append(spans[k][name], xs...)
			}
		}
		eventBytes = append(eventBytes, rr.eventBytes...)
		syncs += rr.journal.Syncs
		records += rr.journal.Records
		m["serve.result_hits"] += float64(rr.cache[0])
		m["serve.result_misses"] += float64(rr.cache[1])
		m["serve.setup_hits"] += float64(rr.cache[2])
	}
	// pooled gathers one span's durations over the given kinds of job.
	pooled := func(name string, kinds ...jobKind) []float64 {
		var xs []float64
		for _, k := range kinds {
			xs = append(xs, spans[k][name]...)
		}
		return xs
	}
	allKinds := []jobKind{kindCold, kindSetupHit, kindResultHit}
	misses := []jobKind{kindCold, kindSetupHit}
	qw := pooled("queue-wait", allKinds...)
	m["serve.queue_wait_ms_p50"] = median(qw)
	var ok bool
	if m["serve.queue_wait_ms_p90"], ok = percentile(qw, 90); !ok {
		r.check("queue-wait-p90", false, "only %d queue-wait spans", len(qw))
	}
	m["serve.cache_lookup_ms_p50"] = median(pooled("cache-lookup", allKinds...))
	m["serve.setup_ms_p50"] = median(pooled("setup", kindCold))
	m["serve.setup_hit.setup_ms_p50"] = median(pooled("setup", kindSetupHit))
	m["serve.engine_run_ms_p50"] = median(pooled("engine-run", misses...))
	m["serve.verify_ms_p50"] = median(pooled("verify", misses...))
	m["serve.encode_ms_p50"] = median(pooled("encode", misses...))
	rounds := float64(len(traced))
	m["serve.result_hits"] /= rounds
	m["serve.result_misses"] /= rounds
	m["serve.setup_hits"] /= rounds
	m["serve.journal_syncs"] = float64(syncs) / rounds
	if syncs > 0 {
		m["serve.journal_records_per_sync"] = float64(records) / float64(syncs)
	}
	m["telemetry.event_bytes_p50"] = median(eventBytes)

	var specs []jobspec.Spec
	var hiers []hierArgs
	for round := 0; round < minServeRounds; round++ {
		for _, j := range planRound(cfg.seed, round).jobs {
			specs = append(specs, j.spec)
			if j.kind == kindCold {
				d, err := jobspec.ParseDomain(j.spec.Domain)
				if err != nil {
					return nil, err
				}
				hiers = append(hiers, hierArgs{part.Dim3(d), j.spec.Nodes})
			}
		}
	}
	var err error
	if m["jobspec.admit_us"], err = admitMicros(specs); err != nil {
		return nil, err
	}
	if m["part.partition_ms"], err = partitionMS(hiers); err != nil {
		return nil, err
	}
	checkServeOutputs(r, append(plain, traced...))
	return r, nil
}

// checkServeOutputs summarises the per-job and per-round checks of
// checkRound.
func checkServeOutputs(r *report, rounds []*roundResult) {
	countsOK := true
	for _, rr := range rounds {
		countsOK = countsOK && rr.countsOK
	}
	r.check("outputs", r.failed == 0 && countsOK,
		"%d of %d jobs done with their planned cache outcome, result hits byte-identical to their cold results; "+
			"cache counters equal the plan in every round: %v", r.attempted-r.failed, r.attempted, countsOK)
}

// latencyFigures pools the rounds' submit-to-result latencies by result
// cache outcome and reports throughput and the latency percentiles. A p90
// without ten samples beyond it fails the run.
func latencyFigures(r *report, rounds []*roundResult) []figure {
	var cold, hit []float64
	var jobs int
	var wall time.Duration
	for _, rr := range rounds {
		for _, o := range rr.outcomes {
			if o.err != nil {
				continue
			}
			if o.cache == "result" {
				hit = append(hit, ms(o.latency))
			} else {
				cold = append(cold, ms(o.latency))
			}
		}
		jobs += len(rr.outcomes)
		wall += rr.run.wall
	}
	figs := []figure{{name: "jobs_per_s", unit: "1/s", value: float64(jobs) / wall.Seconds(),
		note: fmt.Sprintf("%d jobs in %.2f s", jobs, wall.Seconds())}}
	for _, set := range []struct {
		name string
		xs   []float64
	}{{"cold", cold}, {"hit", hit}} {
		top, _ := highestPercentile(len(set.xs))
		topV, _ := percentile(set.xs, float64(top))
		note := fmt.Sprintf("n=%d, highest reportable p%d=%.3f ms", len(set.xs), top, topV)
		p90, ok := percentile(set.xs, 90)
		if !ok {
			r.check(set.name+"-latency-p90", false, "%d samples leave fewer than %d beyond p90", len(set.xs), minBeyond)
		}
		figs = append(figs,
			figure{name: set.name + "_latency_p50_ms", unit: "ms", value: median(set.xs), note: note},
			figure{name: set.name + "_latency_p90_ms", unit: "ms", value: p90, note: note})
	}
	return figs
}

// admitMicros is the median time, in µs, to admit one generated spec as the
// submit handler does: decode the JSON body, Normalize, Validate, Hash.
func admitMicros(specs []jobspec.Spec) (float64, error) {
	bodies := make([][]byte, len(specs))
	for i := range specs {
		b, err := json.Marshal(&specs[i])
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	var xs []float64
	for pass := 0; pass < 5; pass++ {
		for _, b := range bodies {
			t := time.Now()
			var s jobspec.Spec
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			err := dec.Decode(&s)
			if err == nil {
				err = s.Normalize()
			}
			if err == nil {
				err = s.Validate()
			}
			if err == nil {
				_, err = s.Hash()
			}
			if err != nil {
				return 0, fmt.Errorf("admit: %w", err)
			}
			xs = append(xs, float64(time.Since(t))/1e3)
		}
	}
	return median(xs), nil
}
