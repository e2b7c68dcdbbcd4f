// Wave3D: seismic-style acoustic wave propagation with a higher-order
// stencil (radius 3, the typical radius in the paper's survey of stencil
// codes §I). Second-order time stepping needs three quantities: previous,
// current, and next wavefield. The wide halo makes face messages 3x larger
// than a radius-1 code, stressing the exchange differently than jacobi3d.
//
// The distributed run is verified against a serial reference.
package main

import (
	"fmt"
	"log"
	"math"

	stencil "github.com/nodeaware/stencil"
)

const (
	n     = 36 // cubical grid edge
	steps = 12
	r     = 3    // stencil radius
	c2dt2 = 0.05 // c^2 * dt^2 / dx^2, well under the CFL limit
)

// 6th-order central difference coefficients for the 1D Laplacian.
var lap = [r + 1]float64{-49.0 / 18, 1.5, -3.0 / 20, 1.0 / 90}

func initial(x, y, z int) float32 {
	// A Gaussian pulse off-center.
	dx, dy, dz := float64(x-n/3), float64(y-n/2), float64(z-n/2)
	return float32(math.Exp(-(dx*dx + dy*dy + dz*dz) / 12))
}

func main() {
	cfg := stencil.Config{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       stencil.Dim3{X: n, Y: n, Z: n},
		Radius:       r,
		Quantities:   3, // 0: u(t-1), 1: u(t), 2: u(t+1)
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
			v := initial(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z)
			s.Set(0, x, y, z, v) // u(t-1) = u(t): starts at rest
			s.Set(1, x, y, z, v)
		})
	}

	step := func(s *stencil.Subdomain) {
		forEach(s, func(x, y, z int) {
			var l float64
			l = 3 * lap[0] * float64(s.Get(1, x, y, z))
			for k := 1; k <= r; k++ {
				l += lap[k] * float64(s.Get(1, x-k, y, z)+s.Get(1, x+k, y, z)+
					s.Get(1, x, y-k, z)+s.Get(1, x, y+k, z)+
					s.Get(1, x, y, z-k)+s.Get(1, x, y, z+k))
			}
			next := 2*float64(s.Get(1, x, y, z)) - float64(s.Get(0, x, y, z)) + c2dt2*l
			s.Set(2, x, y, z, float32(next))
		})
		// Rotate time levels: u(t-1) <- u(t), u(t) <- u(t+1).
		forEach(s, func(x, y, z int) {
			s.Set(0, x, y, z, s.Get(1, x, y, z))
			s.Set(1, x, y, z, s.Get(2, x, y, z))
		})
	}

	stats := dd.Step(steps, step)

	// Serial reference with identical float32 rounding.
	prev, cur := newGrid(), newGrid()
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				v := initial(x, y, z)
				prev[idx(x, y, z)] = v
				cur[idx(x, y, z)] = v
			}
		}
	}
	for s := 0; s < steps; s++ {
		prev, cur = cur, refStep(prev, cur)
	}

	var maxErr float64
	var energy float64
	for _, s := range dd.Subdomains() {
		forEach(s, func(x, y, z int) {
			got := float64(s.Get(1, x, y, z))
			want := float64(cur[idx(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z)])
			if d := math.Abs(got - want); d > maxErr {
				maxErr = d
			}
			energy += got * got
		})
	}
	fmt.Printf("wave3d: %d steps, radius-%d stencil, %d^3 grid, %d GPUs\n", steps, r, n, dd.NumSubdomains())
	fmt.Printf("wavefield energy: %.4f\n", energy)
	fmt.Printf("max abs deviation from serial reference: %.2e\n", maxErr)
	fmt.Printf("mean exchange time: %.3f ms (halo width %d)\n", stats.Mean()*1e3, r)
	if maxErr > 1e-4 {
		log.Fatal("distributed wave solver diverged from reference")
	}
	fmt.Println("VERIFIED against serial reference")
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

func newGrid() []float32 { return make([]float32, n*n*n) }

func refStep(prev, cur []float32) []float32 {
	next := newGrid()
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var l float64
				l = 3 * lap[0] * float64(cur[idx(x, y, z)])
				for k := 1; k <= r; k++ {
					l += lap[k] * float64(cur[idx(x-k, y, z)]+cur[idx(x+k, y, z)]+
						cur[idx(x, y-k, z)]+cur[idx(x, y+k, z)]+
						cur[idx(x, y, z-k)]+cur[idx(x, y, z+k)])
				}
				nv := 2*float64(cur[idx(x, y, z)]) - float64(prev[idx(x, y, z)]) + c2dt2*l
				next[idx(x, y, z)] = float32(nv)
			}
		}
	}
	return next
}
