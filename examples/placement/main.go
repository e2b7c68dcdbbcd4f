// Placement: the paper's Fig 11 scenario. A 1440x1452x700 domain on one
// six-GPU node produces 720x484x700 subdomains — close to the worst-case
// aspect ratio — so different subdomain pairs exchange very different
// volumes. Node-aware placement puts the high-volume exchanges on NVLink
// pairs; the trivial linearized placement lands some of them on the
// cross-socket SMP bus.
package main

import (
	"fmt"
	"log"

	stencil "github.com/nodeaware/stencil"
)

func run(trivial bool) (*stencil.DistributedDomain, *stencil.Stats) {
	cfg := stencil.Config{
		Nodes:        1,
		RanksPerNode: 6,
		Domain:       stencil.Dim3{X: 1440, Y: 1452, Z: 700},
		Radius:       2,
		Quantities:   4,
		Caps:         stencil.CapsAll(),
		NodeAware:    !trivial,
	}
	dd, err := stencil.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return dd, dd.Exchange(10)
}

func main() {
	aware, awareStats := run(false)
	_, trivialStats := run(true)

	fmt.Println("Fig 11 scenario: 1440x1452x700 on one node, 6 GPUs (720x484x700 subdomains)")
	fmt.Printf("\nnode-aware assignment (subdomain -> GPU): %v\n", aware.Assignment(0))
	fmt.Printf("QAP cost reduction vs trivial: %.1f%%\n", aware.PlacementImprovement(0)*100)

	a, t := awareStats.Min(), trivialStats.Min()
	fmt.Printf("\nexchange time, node-aware placement: %7.3f ms\n", a*1e3)
	fmt.Printf("exchange time, trivial placement:    %7.3f ms\n", t*1e3)
	fmt.Printf("speedup: %.2fx   (paper reports ~20%% / 1.20x)\n", t/a)
}
