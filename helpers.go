package stencil

import (
	"fmt"

	"github.com/nodeaware/stencil/internal/exchange"
)

// This file holds application-side conveniences: bulk initialization,
// iteration, halo verification, and traffic analysis. They are the pieces
// every example and test was otherwise re-implementing.

// FillFunc produces the initial value of quantity q at global coordinate
// (x, y, z).
type FillFunc func(q, x, y, z int) float32

// Fill initializes every interior cell of every subdomain from f. Requires
// Config.RealData.
func (dd *DistributedDomain) Fill(f FillFunc) {
	for _, s := range dd.subs {
		for q := 0; q < dd.ex.Opts.Quantities; q++ {
			for z := 0; z < s.Size.Z; z++ {
				for y := 0; y < s.Size.Y; y++ {
					for x := 0; x < s.Size.X; x++ {
						s.Set(q, x, y, z, f(q, s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z))
					}
				}
			}
		}
	}
}

// ForEachInterior invokes fn for every interior cell of the subdomain, in
// z-major order.
func (s *Subdomain) ForEachInterior(fn func(x, y, z int)) {
	for z := 0; z < s.Size.Z; z++ {
		for y := 0; y < s.Size.Y; y++ {
			for x := 0; x < s.Size.X; x++ {
				fn(x, y, z)
			}
		}
	}
}

// VerifyHalos checks every halo cell of every subdomain against f (the same
// function passed to Fill), honoring the configured boundary conditions:
// under periodic boundaries coordinates wrap; under open boundaries halo
// cells outside the domain are skipped. It returns the number of mismatched
// cells and a description of the first few.
func (dd *DistributedDomain) VerifyHalos(f FillFunc) (bad int, detail string) {
	d := dd.ex.Opts.Domain
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	for _, s := range dd.subs {
		r := dd.ex.Opts.Radius
		for q := 0; q < dd.ex.Opts.Quantities; q++ {
			for z := -r; z < s.Size.Z+r; z++ {
				for y := -r; y < s.Size.Y+r; y++ {
					for x := -r; x < s.Size.X+r; x++ {
						interior := x >= 0 && x < s.Size.X && y >= 0 && y < s.Size.Y && z >= 0 && z < s.Size.Z
						if interior {
							continue
						}
						gx, gy, gz := s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z
						if dd.ex.Opts.OpenBoundary {
							if gx < 0 || gx >= d.X || gy < 0 || gy >= d.Y || gz < 0 || gz >= d.Z {
								continue
							}
						} else {
							gx, gy, gz = wrap(gx, d.X), wrap(gy, d.Y), wrap(gz, d.Z)
						}
						want := f(q, gx, gy, gz)
						got := s.Get(q, x, y, z)
						if got != want {
							bad++
							if bad <= 3 {
								detail += fmt.Sprintf("sub %v q%d halo (%d,%d,%d): got %g want %g; ",
									s.GlobalIndex(), q, x, y, z, got, want)
							}
						}
					}
				}
			}
		}
	}
	return bad, detail
}

// TrafficClass identifies which machine facility a transfer plan's bytes
// cross.
type TrafficClass = exchange.LinkClass

// Traffic class constants.
const (
	TrafficSameGPU = exchange.ClassSameGPU
	TrafficNVLink  = exchange.ClassNVLink
	TrafficXBus    = exchange.ClassXBus
	TrafficHost    = exchange.ClassHost
	TrafficNIC     = exchange.ClassNIC
)

// TrafficReport breaks the per-exchange bytes down by machine facility.
type TrafficReport = exchange.TrafficReport

// Traffic returns the per-exchange traffic breakdown by link class.
func (dd *DistributedDomain) Traffic() *TrafficReport {
	return dd.ex.Traffic()
}

// StagingBytes reports the library's buffer overhead: total device and
// pinned-host staging allocation across all transfer plans.
func (dd *DistributedDomain) StagingBytes() (device, host int64) {
	return dd.ex.StagingBytes()
}
