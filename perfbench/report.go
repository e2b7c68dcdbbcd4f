package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service waits
// for, reported by every workload on every untraced run. Each is defined on
// all four workloads (see README.md for the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"run_wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload prints all of them;
// a metric of a layer the workload does not exercise reads 0.
var perLayer = append(cpuMetrics(), []metricDef{
	{"profile.samples", "count"},
	{"profile.coverage", "ratio"},
	{"trace.run_cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},

	{"part.partition_ms", "ms"},
	{"placement.place_ms", "ms"},
	{"exchange.plan_ms", "ms"},

	{"sim.events", "count"},
	{"sim.scheduled", "count"},
	{"sim.spawned", "count"},
	{"sim.peak_queue", "count"},
	{"sim.ns_per_event", "ns"},

	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"exchange.virtual_ms", "virtual_ms"},
	{"exchange.bytes_per_iter", "B"},
	{"exchange.reexchanges", "count"},
	{"exchange.verify_rounds", "count"},
	{"mpi.messages", "count"},
	{"mpi.retransmits", "count"},
	{"mpi.nacks", "count"},
	{"mpi.dedups", "count"},
	{"halo.pack_gb_s", "GB/s"},
	{"halo.unpack_gb_s", "GB/s"},
	{"halo.checksum_gb_s", "GB/s"},

	{"serve.jobs_per_s", "1/s"},
	{"serve.cold_latency_p50_ms", "ms"},
	{"serve.cold_latency_p90_ms", "ms"},
	{"serve.hit_latency_p50_ms", "ms"},
	{"serve.hit_latency_p90_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.cache_lookup_ms_p50", "ms"},
	{"serve.setup_ms_p50", "ms"},
	{"serve.setup_hit.setup_ms_p50", "ms"},
	{"serve.engine_run_ms_p50", "ms"},
	{"serve.verify_ms_p50", "ms"},
	{"serve.encode_ms_p50", "ms"},
	{"serve.result_hits", "count"},
	{"serve.result_misses", "count"},
	{"serve.setup_hits", "count"},
	{"serve.journal_syncs", "count"},
	{"serve.journal_records_per_sync", "ratio"},
	{"telemetry.event_bytes_p50", "B"},
	{"jobspec.admit_us", "us"},
}...)

func cpuMetrics() []metricDef {
	var ms []metricDef
	for _, b := range cpuBuckets {
		ms = append(ms, metricDef{b + ".cpu_s", "s"})
	}
	return ms
}

// metricName is the pattern every metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// figure is one printed value: a metric, or a workload-specific end-to-end
// figure shown in the table only.
type figure struct {
	name, unit string
	value      float64
	note       string
}

// check is one correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is everything one run measured and checked.
type report struct {
	attempted, failed int
	checks            []check
	metrics           map[string]float64 // endToEnd or perLayer values
	extra             []figure           // workload-specific end-to-end figures
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) show(name, unit string, value float64, note string) {
	r.extra = append(r.extra, figure{name: name, unit: unit, value: value, note: note})
}

// correct reports whether every check passed and no job failed.
func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// result is the JSON object printed as the run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable table and then the JSON line. defs is the
// metric set this run reports; a value outside it, or one missing from it,
// is a bug in the benchmark.
func (r *report) write(w io.Writer, defs []metricDef) error {
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check  %-28s %-4s %s\n", c.name, status, c.detail)
	}
	out := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	var extra []string
	for name := range r.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %s", strings.Join(extra, ", "))
	}
	for _, f := range r.extra {
		fmt.Fprintf(w, "figure %-34s %14.6g %s %s\n", f.name, f.value, f.unit, f.note)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// zeroLayers sets every per-layer metric to 0, the value of a layer the
// workload does not exercise; the workload then overwrites what it
// measured.
func (r *report) zeroLayers() {
	for _, d := range perLayer {
		r.metrics[d.name] = 0
	}
}

// setCPU records a CPU table as per-job seconds.
func (r *report) setCPU(t *cpuTable, jobs int) {
	for _, b := range cpuBuckets {
		r.metrics[b+".cpu_s"] = t.seconds[b] / float64(jobs)
	}
	r.metrics["profile.samples"] = float64(t.samples)
	r.metrics["profile.coverage"] = t.coverage()
	r.check("profile-coverage", t.coverage() >= minCoverage,
		"named layers hold %.1f%% of %d samples (need >= %.0f%%)", 100*t.coverage(), t.samples, 100*minCoverage)
}

// minCoverage is the share of profiled CPU time the named buckets must
// explain; below it the layer table would hide where the time went.
const minCoverage = 0.90
