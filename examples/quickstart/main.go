// Quickstart: decompose a domain across one simulated Summit node, run a
// fully specialized halo exchange, and print what the library decided.
package main

import (
	"fmt"
	"log"

	stencil "github.com/nodeaware/stencil"
)

func main() {
	// A 1363^3 single-precision domain with four quantities and radius-2
	// halos — the paper's single-node workload — across six GPUs driven by
	// six MPI ranks.
	cfg := stencil.Config{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       stencil.Dim3{X: 1363, Y: 1363, Z: 1363},
		Radius:       2,
		Quantities:   4,
		Caps:         stencil.CapsAll(), // +remote +colo +peer +kernel
		NodeAware:    true,
	}
	dd, err := stencil.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("domain %v decomposed into a %v subdomain grid\n",
		cfg.Domain, dd.GridDims())
	for _, s := range dd.Subdomains() {
		node, gpu := s.GPU()
		fmt.Printf("  subdomain %v: %v cells at %v -> node %d GPU %d (rank %d)\n",
			s.GlobalIndex(), s.Size, s.Origin, node, gpu, s.Rank())
	}

	fmt.Println("\ntransfer methods selected:")
	for method, count := range dd.MethodBreakdown() {
		fmt.Printf("  %-16v %4d directions\n", method, count)
	}

	stats := dd.Exchange(10)
	fmt.Printf("\nexchange time (max across ranks, min of %d iterations): %.3f ms\n",
		len(stats.Iterations), stats.Min()*1e3)
	fmt.Printf("bytes moved per exchange: %.1f MB\n", float64(stats.TotalBytes)/1e6)
}
