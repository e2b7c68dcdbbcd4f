// Jacobi3D: a real 7-point Jacobi heat-diffusion solver running on the
// distributed domain with real data. Every step exchanges halos (with full
// communication specialization) and relaxes the grid; the distributed result
// is verified bit-for-bit structure against a serial reference grid.
//
// This is the workload class the paper's introduction motivates: an
// iterative finite-difference solver whose scalability is bounded by halo
// exchange.
package main

import (
	"fmt"
	"log"
	"math"

	stencil "github.com/nodeaware/stencil"
)

const (
	nx, ny, nz = 48, 48, 48
	steps      = 20
)

func initial(x, y, z int) float32 {
	// A hot sphere in the center of a cold box.
	dx, dy, dz := float64(x-nx/2), float64(y-ny/2), float64(z-nz/2)
	if dx*dx+dy*dy+dz*dz < 36 {
		return 100
	}
	return 0
}

func main() {
	cfg := stencil.Config{
		Nodes:        2,
		RanksPerNode: 6,
		Domain:       stencil.Dim3{X: nx, Y: ny, Z: nz},
		Radius:       1,
		Quantities:   2, // quantity 0: temperature; quantity 1: scratch
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
			s.Set(0, x, y, z, initial(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z))
		})
	}

	relax := func(s *stencil.Subdomain) {
		forEach(s, func(x, y, z int) {
			avg := (s.Get(0, x-1, y, z) + s.Get(0, x+1, y, z) +
				s.Get(0, x, y-1, z) + s.Get(0, x, y+1, z) +
				s.Get(0, x, y, z-1) + s.Get(0, x, y, z+1) +
				s.Get(0, x, y, z)) / 7
			s.Set(1, x, y, z, avg)
		})
		forEach(s, func(x, y, z int) { s.Set(0, x, y, z, s.Get(1, x, y, z)) })
	}

	stats := dd.Step(steps, relax)

	// Serial reference.
	ref := newRef()
	for i := 0; i < steps; i++ {
		ref = stepRef(ref)
	}

	var maxErr, total float64
	for _, s := range dd.Subdomains() {
		forEach(s, func(x, y, z int) {
			got := float64(s.Get(0, x, y, z))
			want := ref[idx(s.Origin.X+x, s.Origin.Y+y, s.Origin.Z+z)]
			if d := math.Abs(got - want); d > maxErr {
				maxErr = d
			}
			total += got
		})
	}

	fmt.Printf("jacobi3d: %d steps of a %dx%dx%d grid over %d GPUs\n",
		steps, nx, ny, nz, dd.NumSubdomains())
	fmt.Printf("total heat %.2f (conserved up to rounding)\n", total)
	fmt.Printf("max abs deviation from serial reference: %.2e\n", maxErr)
	fmt.Printf("mean exchange time: %.3f ms\n", stats.Mean()*1e3)
	if maxErr > 1e-4 {
		log.Fatal("distributed solver diverged from reference")
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
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	return (wrap(z, nz)*ny+wrap(y, ny))*nx + wrap(x, nx)
}

func newRef() []float64 {
	ref := make([]float64, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				ref[idx(x, y, z)] = float64(initial(x, y, z))
			}
		}
	}
	return ref
}

func stepRef(ref []float64) []float64 {
	next := make([]float64, len(ref))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				sum := ref[idx(x-1, y, z)] + ref[idx(x+1, y, z)] +
					ref[idx(x, y-1, z)] + ref[idx(x, y+1, z)] +
					ref[idx(x, y, z-1)] + ref[idx(x, y, z+1)] +
					ref[idx(x, y, z)]
				// Match the distributed solver's float32 rounding.
				next[idx(x, y, z)] = float64(float32(float32(sum) / 7))
			}
		}
	}
	return next
}
