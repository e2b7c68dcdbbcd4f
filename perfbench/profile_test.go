package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

const repo = "github.com/nodeaware/stencil/internal/"

// Each sample goes to the innermost repository frame, unless the frames
// below it are GC, allocation, or scheduling work.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{repo + "flownet.(*Network).rebalance", repo + "sim.(*Engine).Run"}, "flownet"},
		{[]string{"runtime.memmove", repo + "halo.(*Domain).Pack", repo + "exchange.(*Exchanger).runIteration"}, "halo"},
		{[]string{"hash/fnv.(*sum64a).Write", repo + "halo.(*Domain).RegionChecksum"}, "halo"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", repo + "flownet.(*Network).rebalance"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.systemstack",
			"runtime.gcAssistAlloc", "runtime.mallocgc", repo + "sim.(*Engine).At"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.(*mheap).freeSpan", "runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.ready", "runtime.goready", "runtime.send",
			"runtime.chansend1", repo + "sim.(*Proc).park"}, "runtime.sched"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.mapaccess2_fast64", "github.com/nodeaware/stencil.(*DistributedDomain).VerifyHalos"}, "stencil"},
		{[]string{"encoding/json.(*encodeState).marshal", repo + "telemetry.(*Recorder).WriteEvents", repo + "serve.runJob"}, "telemetry"},
		{[]string{"syscall.Syscall6", "os.(*File).Sync", repo + "serve.(*journal).syncLoop"}, "serve"},
		{[]string{repo + "figures.Fig12b"}, "other"},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "other"},
		{[]string{"runtime._System"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// spin burns CPU in this package's own code, which the table has no bucket
// for.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The decoder reads what runtime/pprof writes: real samples, stacks that
// name this test's own function, and CPU time near the time spent.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range p.samples {
		total += s.nanos
		for _, fn := range s.stack {
			if fn == "github.com/nodeaware/stencil/perfbench.spin" || fn == "main.spin" {
				inSpin += s.nanos
				break
			}
		}
	}
	if len(p.samples) == 0 || inSpin == 0 {
		t.Fatalf("%d samples, %v in spin; want samples naming spin", len(p.samples), time.Duration(inSpin))
	}
	if got := time.Duration(total); got < 50*time.Millisecond || got > 2*time.Second {
		t.Errorf("profile holds %v of CPU for a 300ms spin", got)
	}
	table := newCPUTable()
	table.add(p)
	if table.seconds["other"] == 0 {
		t.Error("spin in the benchmark's own package should count as other")
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("want an error for data that is not gzip")
	}
}
