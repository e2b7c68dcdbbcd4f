package exchange

import (
	"strings"
	"testing"

	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/machine"
)

// TestOptionsValidate has one row per static rule of Options.Validate. Each
// bad row must be rejected by Validate with a message naming the offending
// option, and New must return that same error: it validates before it
// builds the machine, the partition or the placement.
func TestOptionsValidate(t *testing.T) {
	fatal := func() *fault.Scenario { return (&fault.Scenario{Name: "kill"}).KillGPU(1e-3, 0, 1) }
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string // "" = valid
	}{
		{"valid", func(o *Options) {}, ""},
		{"elem size defaults", func(o *Options) { o.ElemSize = 0 }, ""},
		{"fatal with checkpoints", func(o *Options) { o.Fault = fatal(); o.CheckpointEvery = 2 }, ""},
		{"no nodes", func(o *Options) { o.Nodes = 0 }, "nodes"},
		{"no ranks", func(o *Options) { o.RanksPerNode = 0 }, "ranks_per_node"},
		{"no radius", func(o *Options) { o.Radius = 0 }, "radius"},
		{"no quantities", func(o *Options) { o.Quantities = 0 }, "quantities"},
		{"negative elem size", func(o *Options) { o.ElemSize = -4 }, "elem_size"},
		{"no sockets", func(o *Options) { o.NodeConfig = &machine.NodeConfig{GPUsPerSocket: 3} }, "sockets"},
		{"indivisible ranks", func(o *Options) { o.RanksPerNode = 4 }, "divisible"},
		{"neighborhood 7", func(o *Options) { o.Neighborhood = 7 }, "neighborhood 7"},
		{"overlap vs no_overlap", func(o *Options) { o.Overlap = true; o.NoOverlap = true }, "no_overlap"},
		{"overlap vs aggregate_remote", func(o *Options) { o.Overlap = true; o.AggregateRemote = true }, "aggregate_remote"},
		{"overlap vs adapt_placement", func(o *Options) { o.Overlap = true; o.Adaptive = true; o.AdaptPlacement = true }, "adapt_placement"},
		{"overlap vs cuda_aware", func(o *Options) { o.Overlap = true; o.CUDAAware = true }, "cuda_aware"},
		{"adapt_placement without adaptive", func(o *Options) { o.AdaptPlacement = true }, "requires adaptive"},
		{"adapt_placement vs aggregate_remote", func(o *Options) { o.Adaptive = true; o.AdaptPlacement = true; o.AggregateRemote = true }, "aggregate_remote"},
		{"threshold above 1", func(o *Options) { o.AdaptThreshold = 1.5 }, "AdaptThreshold"},
		{"threshold below 0", func(o *Options) { o.AdaptThreshold = -0.1 }, "AdaptThreshold"},
		{"negative send timeout", func(o *Options) { o.SendTimeout = -1 }, "send_timeout"},
		{"negative checkpoint", func(o *Options) { o.CheckpointEvery = -1 }, "checkpoint_every"},
		{"fatal without checkpoint", func(o *Options) { o.Fault = fatal() }, "checkpoint_every"},
		{"fatal vs aggregate_remote", func(o *Options) { o.Fault = fatal(); o.CheckpointEvery = 2; o.AggregateRemote = true }, "aggregate_remote"},
		{"fatal vs adapt_placement", func(o *Options) {
			o.Fault = fatal()
			o.CheckpointEvery = 2
			o.Adaptive = true
			o.AdaptPlacement = true
		}, "adapt_placement"},
		{"preset node count", func(o *Options) { o.PresetPlacement = [][]int{{0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}} }, "PresetPlacement"},
		{"preset not a permutation", func(o *Options) { o.PresetPlacement = [][]int{{0, 0, 1, 2, 3, 4}} }, "permutation"},
	}
	for _, tc := range cases {
		o := smallOpts(6, CapsAll(), false)
		o.RealData = false
		tc.mutate(&o)
		err := o.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate rejected a valid configuration: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.want)
			continue
		}
		if _, nerr := New(o); nerr == nil || nerr.Error() != err.Error() {
			t.Errorf("%s: New = %v, want Validate's error %q", tc.name, nerr, err)
		}
	}
}

// TestNewDefaultsElemSize: the 0 → 4 bytes default is applied by New, the
// one place every caller passes through.
func TestNewDefaultsElemSize(t *testing.T) {
	o := smallOpts(6, CapsAll(), false)
	o.RealData = false
	o.ElemSize = 0
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if e.Opts.ElemSize != 4 {
		t.Errorf("ElemSize = %d, want the 4-byte default", e.Opts.ElemSize)
	}
}
