package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark reports it: fewer than that and the figure is one
// or two outliers, not a tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the nearest-rank position (1-based) of the p-th percentile in n
// samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond returns how many of n samples lie above the nearest-rank p-th
// percentile.
func beyond(p float64, n int) int { return n - rankOf(p, n) }

// highestPercentile returns the highest whole percentile of n samples that
// has at least minBeyond samples above it, and false when even the minimum
// has fewer (n <= minBeyond).
func highestPercentile(n int) (int, bool) {
	for p := 99; p >= 0; p-- {
		if beyond(float64(p), n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs and whether it
// is reportable: at least minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	return s[rankOf(p, n)-1], beyond(p, n) >= minBeyond
}

// span is one measured interval on three clocks: wall time, the CPU time
// (user + system, all threads) the process consumed in it, and the time the
// hypervisor stole from the machine's CPUs in it. The reference host is a
// shared VM whose steal time swings wall time by 2-3x from one minute to the
// next while CPU time stays within a few percent, so the gated times are
// CPU time and steal-scaled wall time (see unstolen).
type span struct{ wall, cpu, steal time.Duration }

// startSpan starts the clocks; calling the returned function reads them.
func startSpan() func() span {
	w0, c0, s0 := time.Now(), processCPU(), stolenTime()
	return func() span {
		return span{wall: time.Since(w0), cpu: processCPU() - c0, steal: stolenTime() - s0}
	}
}

// unstolen is the span's wall time with the hypervisor's steal scaled out:
// wall time times the share of the CPU time the machine's threads were
// runnable for that they were given, cpu / (cpu + steal). Time spent off
// CPU - fsync, sleeps, lock and queue waits - stays in it, so unlike CPU
// time it sees a change that makes the program wait longer.
func (s span) unstolen() time.Duration {
	if s.cpu+s.steal <= 0 {
		return s.wall
	}
	return time.Duration(float64(s.wall) * float64(s.cpu) / float64(s.cpu+s.steal))
}

// processCPU is the CPU time the process has consumed so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHz is the unit of /proc/stat's counters on Linux.
const userHz = 100

// stolenTime is the steal time of all the machine's CPUs so far, from the
// first line of /proc/stat; 0 where that is unreadable, which leaves
// unstolen equal to wall time.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHz
}

// spanStats are medians over a set of spans, in seconds.
type spanStats struct {
	cpu, wall, unstolen float64
	stealShare          float64 // steal / (cpu + steal)
}

// spanMedians returns the medians of spans.
func spanMedians(spans []span) spanStats {
	var cs, ws, us, ss []float64
	for _, s := range spans {
		cs = append(cs, s.cpu.Seconds())
		ws = append(ws, s.wall.Seconds())
		us = append(us, s.unstolen().Seconds())
		if s.cpu+s.steal > 0 {
			ss = append(ss, float64(s.steal)/float64(s.cpu+s.steal))
		}
	}
	return spanStats{cpu: median(cs), wall: median(ws), unstolen: median(us), stealShare: median(ss)}
}
