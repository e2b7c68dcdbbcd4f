package main

import (
	"testing"
	"time"
)

// The reportable tail is the highest percentile with at least ten samples
// above it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{n: 5, ok: false},
		{n: 10, ok: false},
		{n: 11, want: 9, ok: true},
		{n: 19, want: 47, ok: true},
		{n: 20, want: 50, ok: true},
		{n: 99, want: 89, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 156, want: 93, ok: true},
		{n: 1000, want: 99, ok: true},
	} {
		got, ok := highestPercentile(tc.n)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("highestPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(float64(got), tc.n) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", tc.n, got, beyond(float64(got), tc.n))
		}
	}
}

func TestPercentileReportable(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reportable")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// Steal scales wall time by the share of runnable CPU time the process was
// given; off-CPU time stays in, and no CPU or steal leaves wall time as is.
func TestUnstolen(t *testing.T) {
	for _, tc := range []struct {
		s    span
		want time.Duration
	}{
		{span{wall: 2 * time.Second, cpu: 3 * time.Second, steal: time.Second}, 1500 * time.Millisecond},
		{span{wall: 2 * time.Second, cpu: time.Second}, 2 * time.Second},
		{span{wall: time.Second}, time.Second},
	} {
		if got := tc.s.unstolen(); got != tc.want {
			t.Errorf("%+v.unstolen() = %v, want %v", tc.s, got, tc.want)
		}
	}
}
