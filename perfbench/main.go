// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process and prints a table of checks and metrics,
// ending with one JSON line:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (see README.md in this directory):
//
//	bash perfbench/run.sh --workload weak64 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, from a separate run that also takes a CPU profile of
// the measured phase. Any failed job or check makes the exit status 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads lists every workload with the reason it exists, as
// BENCHMARK.json at the repository root declares them.
var workloads = []struct{ name, why string }{
	{"weak64",
		"fig12b top rung, 64 nodes x 6 ranks, +kernel, horizon waterfill: the engine hot path (sim, handoff, malloc, GC) plus the bounded waterfill"},
	{"exact32",
		"32 nodes under exact max-min: the exact waterfill is most of the host time, so waterfill changes show here and engine changes barely do"},
	{"halo-lossy",
		"8 nodes of real data over lossy NICs with verification: halo pack/unpack, checksums and the MPI envelope; the waterfill is minor"},
	{"serve-mix",
		"stencilserve over loopback HTTP, closed loop of cold runs, setup hits and result hits: the only path through jobspec, serve and telemetry"},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// runLimit is how long a run may take before the watchdog ends it as hung.
// A correct traced run takes at most about twice --seconds plus
// exact32's attribution re-run and serve-mix's fixed rounds, well within
// this.
func runLimit(seconds time.Duration) time.Duration { return 3*seconds + 60*time.Second }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload to run: weak64, exact32, halo-lossy, or serve-mix")
	seed := flags.Int64("seed", 1, "workload seed")
	seconds := flags.Int("seconds", 30, "measurement budget in seconds")
	trace := flags.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	commit := flags.String("commit", "none", "commit the benchmark was built from, for the environment stamp")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	runtime.GOMAXPROCS(runtime.NumCPU())
	limit := runLimit(cfg.seconds)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", cfg.workload, limit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)
	fmt.Fprintf(w, "# env %s commit=%s\n", envStamp(), *commit)
	for _, wl := range workloads {
		if wl.name == cfg.workload {
			fmt.Fprintf(w, "# why %s\n", wl.why)
		}
	}

	var r *report
	var err error
	switch {
	case cfg.workload == "serve-mix":
		r, err = serveMix(cfg)
	case engineWorkloads[cfg.workload].opts != nil:
		r, err = runEngine(engineWorkloads[cfg.workload], cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		w.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := r.write(w, defs); err != nil {
		w.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// envStamp records what the numbers were measured on: toolchain, cores,
// and CPU model.
func envStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
}
