package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/jobspec"
	"github.com/nodeaware/stencil/internal/mpi"
)

// errPreempted is runJob's sentinel for a run stopped early by the job's
// cancellation flag. The worker maps it to the cancelled state; a preempted
// run's partial outcome is never cached.
var errPreempted = errors.New("serve: job preempted")

// ResultSchema identifies the result-document layout.
const ResultSchema = "stencilserve-result/1"

// Result is the deterministic outcome document of one job. Every field is a
// virtual-time quantity or a pure function of the spec — no wall-clock
// values — so identical jobs marshal to byte-identical documents, which is
// what the whole-result cache stores and replays.
type Result struct {
	Schema     string         `json:"schema"`
	SpecHash   string         `json:"spec_hash"`
	Config     string         `json:"config"` // "2n/2r/6g/24" paper label
	Caps       string         `json:"caps"`   // "+kernel" ladder label
	Grid       [3]int         `json:"grid"`
	Subdomains int            `json:"subdomains"`
	Methods    map[string]int `json:"methods"` // sorted by encoding/json

	IterationsSeconds []float64 `json:"iterations_s"`
	MeanSeconds       float64   `json:"mean_s"`
	MinSeconds        float64   `json:"min_s"`
	MaxSeconds        float64   `json:"max_s"`
	TotalBytes        int64     `json:"total_bytes"`
	VirtualSeconds    float64   `json:"virtual_s"`

	PlacementImprovement float64 `json:"placement_improvement,omitempty"`

	MPIRetries int        `json:"mpi_retries,omitempty"`
	Delivery   *mpi.Stats `json:"delivery,omitempty"`

	ReExchanges      int `json:"reexchanges,omitempty"`
	VerifyRounds     int `json:"verify_rounds,omitempty"`
	ForcedRepairs    int `json:"forced_repairs,omitempty"`
	QuarantineEnters int `json:"quarantine_enters,omitempty"`
	QuarantineExits  int `json:"quarantine_exits,omitempty"`

	Checkpoints  int `json:"checkpoints,omitempty"`
	Rollbacks    int `json:"rollbacks,omitempty"`
	MigratedSubs int `json:"migrated_subs,omitempty"`

	FaultLog    []string `json:"fault_log,omitempty"`
	AdaptLog    []string `json:"adapt_log,omitempty"`
	RecoveryLog []string `json:"recovery_log,omitempty"`

	// HaloOK reports end-of-run halo verification for Verify jobs: every
	// halo cell byte-identical to the analytic fill.
	HaloOK *bool `json:"halo_ok,omitempty"`
}

// fillFunc is the analytic fill Verify jobs check halos against (the same
// polynomial the chaos tests and faultsim use).
func fillFunc(q, x, y, z int) float32 { return float32(q*1000003 + z*9973 + y*97 + x) }

// runOutcome carries everything a finished engine run produces.
type runOutcome struct {
	result []byte // deterministic Result JSON
	events []byte // deterministic telemetry NDJSON
	// assignments is the phase-2 placement (per node), for the setup cache.
	assignments [][]int
	// virtualSeconds is the engine clock at the end of the run.
	virtualSeconds float64
}

// runJob executes one job on a fresh, isolated engine. preset, when
// non-nil, injects a cached phase-2 placement. preempt, when non-nil, is
// polled by the engine's coordinator at every iteration safe point; once it
// reports true the run stops at the next boundary and runJob returns
// errPreempted. lap stamps the run's wall-clock phases (setup, engine-run,
// verify, encode) onto the job's trace; it never touches the outcome bytes.
// The outcome's result and events bytes are deterministic: two calls with
// the same spec return byte-identical slices regardless of preset,
// concurrency, host load, or tracing (Preempt never advances virtual time,
// so un-preempted runs are unaffected by the polling).
func runJob(spec *jobspec.Spec, specHash string, preset [][]int, preempt func() bool, lap *lapClock) (*runOutcome, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.PresetPlacement = preset
	cfg.Preempt = preempt
	tel := stencil.NewTelemetry()
	// Per-link utilization events dominate the log at scale and belong in
	// benchmark tooling, not a job stream; metrics and spans still record.
	tel.LinkEvents = false
	cfg.Telemetry = tel

	dd, err := stencil.New(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.RealData {
		dd.Fill(fillFunc)
	}
	lap.lap("setup", fmt.Sprintf("nodes=%d subdomains=%d", cfg.Nodes, dd.NumSubdomains()))
	iters := spec.Iters
	if iters <= 0 {
		iters = 10
	}
	stats := dd.Exchange(iters)
	lap.lap("engine-run", fmt.Sprintf("iters=%d virtual_s=%g", iters, float64(dd.VirtualTime())))
	if dd.Preempted() {
		return nil, errPreempted
	}

	res := &Result{
		Schema:     ResultSchema,
		SpecHash:   specHash,
		Config:     fmt.Sprintf("%dn/%dr/%dg/%d", cfg.Nodes, cfg.RanksPerNode, cfg.NodeConfig.GPUs(), cfg.Domain.X),
		Caps:       capsLabel(spec),
		Grid:       [3]int{dd.GridDims().X, dd.GridDims().Y, dd.GridDims().Z},
		Subdomains: dd.NumSubdomains(),
		Methods:    map[string]int{},

		MeanSeconds:    float64(stats.Mean()),
		MinSeconds:     float64(stats.Min()),
		MaxSeconds:     float64(stats.Max()),
		TotalBytes:     stats.TotalBytes,
		VirtualSeconds: float64(dd.VirtualTime()),

		MPIRetries:       stats.MPIRetries,
		ReExchanges:      stats.ReExchanges,
		VerifyRounds:     stats.VerifyRounds,
		ForcedRepairs:    stats.ForcedRepairs,
		QuarantineEnters: stats.QuarantineEnters,
		QuarantineExits:  stats.QuarantineExits,
		Checkpoints:      stats.Checkpoints,
		Rollbacks:        stats.Rollbacks,
		MigratedSubs:     stats.MigratedSubs,
	}
	res.IterationsSeconds = make([]float64, len(stats.Iterations))
	for i, t := range stats.Iterations {
		res.IterationsSeconds[i] = float64(t)
	}
	for m, c := range dd.MethodBreakdown() {
		res.Methods[m.String()] = c
	}
	if cfg.NodeAware {
		res.PlacementImprovement = dd.PlacementImprovement(0)
	}
	if d := stats.Delivery; d != (mpi.Stats{}) {
		dc := d
		res.Delivery = &dc
	}
	for _, r := range dd.FaultLog() {
		res.FaultLog = append(res.FaultLog, r.String())
	}
	for _, r := range dd.AdaptLog() {
		res.AdaptLog = append(res.AdaptLog, r.String())
	}
	for _, r := range dd.RecoveryLog() {
		res.RecoveryLog = append(res.RecoveryLog, r.String())
	}
	if cfg.RealData {
		bad, detail := dd.VerifyHalos(fillFunc)
		ok := bad == 0
		res.HaloOK = &ok
		if !ok {
			return nil, fmt.Errorf("serve: %d corrupted halo cells: %s", bad, detail)
		}
	}
	lap.lap("verify", fmt.Sprintf("real_data=%t", cfg.RealData))

	out := &runOutcome{virtualSeconds: float64(dd.VirtualTime())}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	out.result = buf.Bytes()

	var ev bytes.Buffer
	if err := tel.WriteEvents(&ev); err != nil {
		return nil, err
	}
	out.events = ev.Bytes()

	if spec.CacheableSetup() {
		out.assignments = make([][]int, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			out.assignments[n] = dd.Assignment(n)
		}
	}
	lap.lap("encode", fmt.Sprintf("result_bytes=%d event_bytes=%d", len(out.result), len(out.events)))
	return out, nil
}

// capsLabel renders the paper's ladder label for the spec's capability rung.
func capsLabel(spec *jobspec.Spec) string {
	caps, err := jobspec.ParseCaps(spec.Caps)
	if err != nil {
		return spec.Caps
	}
	switch {
	case caps.Kernel:
		return "+kernel"
	case caps.Peer:
		return "+peer"
	case caps.Colocated:
		return "+colo"
	default:
		return "+remote"
	}
}
