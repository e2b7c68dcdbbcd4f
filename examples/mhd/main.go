// MHD-style multi-quantity transport: eight conserved fields (density,
// pressure, three velocity components, three magnetic-field components —
// the upper end of the 1-8 quantity range the paper surveys in §I) advected
// across a two-node cluster with first-order upwind differencing.
//
// With eight quantities every halo message is 8x the single-field size, so
// this workload emphasizes exchange bandwidth over message count. The
// distributed result is verified against a serial reference.
package main

import (
	"fmt"
	"log"
	"math"

	stencil "github.com/nodeaware/stencil"
)

const (
	n     = 24
	steps = 16
	nq    = 8
	cfl   = 0.4 // v*dt/dx per axis
)

func initial(q, x, y, z int) float32 {
	// Each field gets a distinct smooth pattern so cross-field mixups are
	// detectable.
	fx := float64(x) / n * 2 * math.Pi
	fy := float64(y) / n * 2 * math.Pi
	fz := float64(z) / n * 2 * math.Pi
	return float32(math.Sin(fx*float64(q%3+1)) + math.Cos(fy*float64(q%4+1)) + 0.5*math.Sin(fz+float64(q)))
}

// upwind advances one cell of one field by upwind advection with unit
// velocity along +x, +y, +z.
func upwind(get func(q, x, y, z int) float32, q, x, y, z int) float32 {
	u := float64(get(q, x, y, z))
	return float32(u - cfl*(u-float64(get(q, x-1, y, z))) -
		cfl*(u-float64(get(q, x, y-1, z))) -
		cfl*(u-float64(get(q, x, y, z-1))))
}

func main() {
	cfg := stencil.Config{
		Nodes:        2,
		RanksPerNode: 6,
		Domain:       stencil.Dim3{X: n, Y: n, Z: n},
		Radius:       1,
		Quantities:   nq + nq, // live fields plus scratch copies
		Caps:         stencil.CapsAll(),
		NodeAware:    true,
		RealData:     true,
	}
	dd, err := stencil.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range dd.Subdomains() {
		forEach(s, func(x, y, z int) {
			for q := 0; q < nq; q++ {
				s.Set(q, x, y, z, initial(q, s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z))
			}
		})
	}

	advect := func(s *stencil.Subdomain) {
		forEach(s, func(x, y, z int) {
			for q := 0; q < nq; q++ {
				s.Set(nq+q, x, y, z, upwind(s.Get, q, x, y, z))
			}
		})
		forEach(s, func(x, y, z int) {
			for q := 0; q < nq; q++ {
				s.Set(q, x, y, z, s.Get(nq+q, x, y, z))
			}
		})
	}

	stats := dd.Step(steps, advect)

	// Serial reference.
	ref := make([][]float32, nq)
	for q := range ref {
		ref[q] = make([]float32, n*n*n)
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					ref[q][idx(x, y, z)] = initial(q, x, y, z)
				}
			}
		}
	}
	get := func(q, x, y, z int) float32 { return ref[q][idx(x, y, z)] }
	for st := 0; st < steps; st++ {
		next := make([][]float32, nq)
		for q := range next {
			next[q] = make([]float32, n*n*n)
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						next[q][idx(x, y, z)] = upwind(get, q, x, y, z)
					}
				}
			}
		}
		ref = next
	}

	var maxErr float64
	for _, s := range dd.Subdomains() {
		forEach(s, func(x, y, z int) {
			for q := 0; q < nq; q++ {
				got := float64(s.Get(q, x, y, z))
				want := float64(ref[q][idx(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z)])
				if d := math.Abs(got - want); d > maxErr {
					maxErr = d
				}
			}
		})
	}

	fmt.Printf("mhd: %d steps, %d conserved fields, %d^3 grid, %d GPUs on 2 nodes\n",
		steps, nq, n, dd.NumSubdomains())
	fmt.Printf("bytes per exchange: %.1f MB across %d transfer plans\n",
		float64(stats.TotalBytes)/1e6, totalPlans(stats))
	fmt.Printf("max abs deviation from serial reference: %.2e\n", maxErr)
	fmt.Printf("mean exchange time: %.3f ms\n", stats.Mean()*1e3)
	if maxErr > 1e-4 {
		log.Fatal("distributed transport diverged from reference")
	}
	fmt.Println("VERIFIED against serial reference")
}

func totalPlans(st *stencil.Stats) int {
	total := 0
	for _, c := range st.MethodCount {
		total += c
	}
	return total
}

func forEach(s *stencil.Subdomain, fn func(x, y, z int)) {
	for z := 0; z < s.Size.Z; z++ {
		for y := 0; y < s.Size.Y; y++ {
			for x := 0; x < s.Size.X; x++ {
				fn(x, y, z)
			}
		}
	}
}

func idx(x, y, z int) int {
	wrap := func(v, m int) int { return ((v % m) + m) % m }
	return (wrap(z, n)*n+wrap(y, n))*n + wrap(x, n)
}
