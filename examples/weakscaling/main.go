// Weakscaling: scale a cube domain with the GPU count (750^3 points per
// GPU, the paper's §IV-D protocol) and watch the exchange time flatten once
// off-node communication dominates, comparing the bottom and top of the
// specialization ladder.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	stencil "github.com/nodeaware/stencil"
)

// cubeEdge keeps ~750^3 points per GPU in an overall cube, the paper's
// weak-scaling protocol: round(750 * nGPUs^(1/3)).
func cubeEdge(nGPUs int) int {
	return int(math.Round(750 * math.Cbrt(float64(nGPUs))))
}

func main() {
	maxNodes := flag.Int("maxnodes", 8, "largest node count (paper: 256)")
	iters := flag.Int("iters", 3, "exchange iterations per configuration")
	flag.Parse()

	fmt.Printf("%-8s %-10s %-12s %-12s %s\n", "nodes", "GPUs", "domain", "+remote", "+kernel (fully specialized)")
	for nodes := 1; nodes <= *maxNodes; nodes *= 2 {
		edge := cubeEdge(nodes * 6)
		var times [2]float64
		for i, caps := range []stencil.Capabilities{stencil.CapsRemote(), stencil.CapsAll()} {
			dd, err := stencil.New(stencil.Config{
				Nodes:        nodes,
				RanksPerNode: 6,
				Domain:       stencil.Dim3{X: edge, Y: edge, Z: edge},
				Radius:       2,
				Quantities:   4,
				Caps:         caps,
				NodeAware:    true,
			})
			if err != nil {
				log.Fatal(err)
			}
			times[i] = dd.Exchange(*iters).Min()
		}
		fmt.Printf("%-8d %-10d %-12s %9.3f ms %9.3f ms  (%.2fx)\n",
			nodes, nodes*6, fmt.Sprintf("%d^3", edge),
			times[0]*1e3, times[1]*1e3, times[0]/times[1])
	}
}
