// Command stencilsim runs a single halo-exchange configuration described by
// flags and reports the measured exchange time, method breakdown, and
// placement decision — the general-purpose driver for exploring the space
// the figures sample.
//
// Example:
//
//	stencilsim -nodes 4 -ranks 6 -domain 2163 -radius 2 -quantities 4 \
//	           -caps kernel -iters 10
package main

import (
	"flag"
	"fmt"
	"io"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/jobspec"
)

func main() { jobspec.Main(run) }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stencilsim", flag.ContinueOnError)
	spec := jobspec.Default()
	spec.BindTopologyFlags(fs)
	spec.BindMethodFlags(fs)
	spec.BindRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dim, err := jobspec.ParseDomain(spec.Domain)
	if err != nil {
		return err
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	dd, err := stencil.New(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "configuration: %dn/%dr/%dg domain %v radius %d quantities %d caps %s\n",
		spec.Nodes, spec.RanksPerNode, cfg.NodeConfig.GPUs(), dim, spec.Radius, spec.Quantities, spec.Caps)
	fmt.Fprintf(out, "subdomain grid: %v (%d subdomains)\n", dd.GridDims(), dd.NumSubdomains())
	if cfg.NodeAware {
		fmt.Fprintf(out, "placement (node 0): %v, QAP cost reduction %.1f%% vs trivial\n",
			dd.Assignment(0), dd.PlacementImprovement(0)*100)
	}
	fmt.Fprintln(out, "method breakdown:")
	for m, c := range dd.MethodBreakdown() {
		fmt.Fprintf(out, "  %-16v %6d plans\n", m, c)
	}

	fmt.Fprintln(out, "traffic by link class:")
	fmt.Fprint(out, dd.Traffic())
	dev, hostB := dd.StagingBytes()
	fmt.Fprintf(out, "staging buffers: %.1f MB device, %.1f MB pinned host\n", float64(dev)/1e6, float64(hostB)/1e6)

	st := dd.Exchange(spec.Iters)
	fmt.Fprintf(out, "\nexchange time over %d iterations (max across ranks):\n", spec.Iters)
	fmt.Fprintf(out, "  min  %8.3f ms\n", st.Min()*1e3)
	fmt.Fprintf(out, "  mean %8.3f ms\n", st.Mean()*1e3)
	fmt.Fprintf(out, "  max  %8.3f ms\n", st.Max()*1e3)
	fmt.Fprintf(out, "bytes per exchange: %.1f MB\n", float64(st.TotalBytes)/1e6)
	return nil
}
