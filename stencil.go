// Package stencil is a node-aware 3D stencil halo-exchange library for
// heterogeneous (multi-socket, multi-GPU) clusters, reproducing "Node-Aware
// Stencil Communication for Heterogeneous Supercomputers" (IPPS 2020) on a
// simulated hardware substrate.
//
// A DistributedDomain runs the paper's three-phase setup automatically:
//
//  1. Partitioning — hierarchical prime-factor recursive bisection,
//     first across nodes, then across the GPUs of each node, minimizing
//     surface-to-volume ratio at the slow links first.
//  2. Placement — per-node quadratic-assignment of subdomains to GPUs,
//     matching exchange volume to discovered link bandwidth.
//  3. Specialization — per-neighbor selection of the fastest applicable
//     transfer method (KERNEL, PEERMEMCPY, COLOCATEDMEMCPY, CUDAAWAREMPI,
//     STAGED).
//
// Because no CUDA devices or MPI launchers exist in this environment, the
// library executes on a deterministic discrete-event simulation of a
// Summit-like cluster (see internal/machine). Exchanges move real bytes when
// Config.RealData is set, so numerical results are bit-exact verifiable,
// and every operation advances a virtual clock calibrated to the paper's
// platform, so the performance characteristics are reproducible.
package stencil

import (
	"encoding/binary"
	"math"

	"github.com/nodeaware/stencil/internal/exchange"
	"github.com/nodeaware/stencil/internal/fault"
	"github.com/nodeaware/stencil/internal/part"
	"github.com/nodeaware/stencil/internal/sim"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// Dim3 is a 3D extent or index.
type Dim3 = part.Dim3

// Capabilities selects which transfer methods the library may use, mirroring
// the paper's "+remote/+colo/+peer/+kernel" ladder. The zero value enables
// only remote (MPI) transfers.
type Capabilities = exchange.Capabilities

// Capability ladder constructors.
var (
	CapsRemote = exchange.CapsRemote
	CapsColo   = exchange.CapsColo
	CapsPeer   = exchange.CapsPeer
	CapsAll    = exchange.CapsAll
)

// Method identifies a transfer method in statistics.
type Method = exchange.Method

// Exported method constants.
const (
	MethodKernel    = exchange.MethodKernel
	MethodPeer      = exchange.MethodPeer
	MethodColocated = exchange.MethodColocated
	MethodCudaAware = exchange.MethodCudaAware
	MethodStaged    = exchange.MethodStaged
)

// Stats reports measured exchange times and the method breakdown.
type Stats = exchange.Stats

// FaultScenario is a scripted, deterministic fault schedule: link failures
// and degradations, NIC flaps, GPU stragglers, rank pauses, each at a fixed
// virtual time. Build one with the fluent helpers (KillNVLink, FlapNIC,
// DegradeNIC, StraggleGPU, PauseRank, ...) and pass it as Config.Fault.
type FaultScenario = fault.Scenario

// FaultEvent, FaultTarget, and FaultRecord expose the scenario building
// blocks and the applied-fault timeline.
type (
	FaultEvent  = fault.Event
	FaultTarget = fault.Target
	FaultRecord = fault.Record
)

// AdaptRecord is one adaptation decision (a method switch or re-placement).
type AdaptRecord = exchange.AdaptRecord

// RecoveryRecord is one checkpoint/rollback/migration action of the
// recovery layer; see Config.CheckpointEvery and RecoveryLog.
type RecoveryRecord = exchange.RecoveryRecord

// Telemetry is a unified virtual-time observability recorder: counters,
// gauges, histograms, per-link utilization tracks, hierarchical phase spans,
// and a structured event log, all keyed by simulated time and exportable as
// Prometheus text, a JSON snapshot, or NDJSON events (see internal/telemetry).
// Create one with NewTelemetry, attach it via Config.Telemetry, and read it
// after the run. Attaching telemetry never changes simulated times.
type Telemetry = telemetry.Recorder

// NewTelemetry returns an empty recorder ready to attach to a Config.
func NewTelemetry() *Telemetry { return telemetry.New() }

// PlanInfo is an inspection snapshot of one transfer plan.
type PlanInfo = exchange.PlanInfo

// Config describes a distributed stencil job. It is the engine's options
// type, so its zero value is the paper's baseline: remote-only transfers
// (Caps) over the trivial placement (set NodeAware for the §III-B QAP).
// Validate checks it without building the job.
type Config = exchange.Options

// DistributedDomain is a stencil domain decomposed across a simulated
// multi-GPU cluster, ready to exchange halos.
type DistributedDomain struct {
	ex   *exchange.Exchanger
	subs []*Subdomain
}

// New partitions, places, and specializes the domain per the configuration.
func New(cfg Config) (*DistributedDomain, error) {
	ex, err := exchange.New(cfg)
	if err != nil {
		return nil, err
	}
	dd := &DistributedDomain{ex: ex}
	for _, s := range ex.Subs {
		origin, size := ex.Hier.Subdomain(s.NodeIdx, s.GPUIdx)
		dd.subs = append(dd.subs, &Subdomain{sub: s, Origin: origin, Size: size, dd: dd})
	}
	return dd, nil
}

// Exchange performs the given number of halo exchanges and returns the
// measured statistics (max-across-ranks time per iteration, as the paper
// reports).
func (dd *DistributedDomain) Exchange(iterations int) *Stats {
	return dd.ex.Run(iterations)
}

// Subdomains returns the per-GPU subdomains in deterministic order.
func (dd *DistributedDomain) Subdomains() []*Subdomain { return dd.subs }

// NumSubdomains returns the total subdomain (= GPU) count.
func (dd *DistributedDomain) NumSubdomains() int { return len(dd.subs) }

// GridDims returns the global subdomain grid.
func (dd *DistributedDomain) GridDims() Dim3 { return dd.ex.Hier.GlobalDims() }

// PlacementImprovement returns the relative reduction in the QAP objective
// achieved by the chosen placement versus the trivial linearized baseline on
// the given node (e.g. 0.19 for a 19% cost reduction).
func (dd *DistributedDomain) PlacementImprovement(node int) float64 {
	return dd.ex.PlacementImprovement(node)
}

// Assignment returns the subdomain→GPU mapping chosen for the given node.
func (dd *DistributedDomain) Assignment(node int) []int {
	out := make([]int, len(dd.ex.Assignments[node].SubToGPU))
	copy(out, dd.ex.Assignments[node].SubToGPU)
	return out
}

// MethodBreakdown returns how many of the per-direction transfer plans use
// each method. Called before an Exchange it reflects the setup-time
// selection; called after, any adaptive re-specialization.
func (dd *DistributedDomain) MethodBreakdown() map[Method]int {
	return dd.ex.MethodCounts()
}

// PlanInfos snapshots every transfer plan: endpoints, method, bytes, and
// traffic class. The method column reflects any adaptation so far.
func (dd *DistributedDomain) PlanInfos() []PlanInfo { return dd.ex.PlanInfos() }

// AdaptLog returns the adaptation timeline recorded so far (method switches
// and re-placements); empty unless Config.Adaptive.
func (dd *DistributedDomain) AdaptLog() []AdaptRecord { return dd.ex.AdaptLog }

// RecoveryLog returns the recovery timeline (checkpoints, detected
// failures, rollbacks, migrations, resumes); empty unless
// Config.CheckpointEvery > 0.
func (dd *DistributedDomain) RecoveryLog() []RecoveryRecord { return dd.ex.RecoveryLog }

// FaultLog returns the applied-fault timeline; empty unless Config.Fault.
func (dd *DistributedDomain) FaultLog() []FaultRecord {
	if dd.ex.Faults == nil {
		return nil
	}
	return dd.ex.Faults.Log()
}

// Trace returns the recorded operation timeline (Config.TraceOps).
func (dd *DistributedDomain) Trace() []TraceOp {
	var out []TraceOp
	for _, r := range dd.ex.Trace {
		out = append(out, TraceOp{
			Name: r.Name, Kind: r.Kind.String(), Device: r.Device,
			Stream: r.Stream, Start: r.Start, End: r.End, Bytes: r.Bytes,
		})
	}
	return out
}

// TraceOp is one simulated GPU operation in a recorded timeline.
type TraceOp struct {
	Name   string
	Kind   string
	Device int
	Stream string
	Start  float64
	End    float64
	Bytes  int64
}

// Subdomain exposes one GPU's block of the domain.
type Subdomain struct {
	// Origin and Size locate the subdomain's interior in global grid
	// coordinates.
	Origin, Size Dim3
	sub          *exchange.Sub
	dd           *DistributedDomain
}

// GlobalIndex returns the subdomain's index in the global subdomain grid.
func (s *Subdomain) GlobalIndex() Dim3 { return s.sub.Global }

// GPU returns the (node, local GPU) pair the subdomain was placed on.
func (s *Subdomain) GPU() (node, gpu int) { return s.sub.NodeID, s.sub.LocalGPU }

// Rank returns the owning MPI rank.
func (s *Subdomain) Rank() int { return s.sub.Rank }

// Get reads quantity q at local coordinate (x, y, z); halo cells use
// negative or >= Size indices. Requires Config.RealData.
func (s *Subdomain) Get(q, x, y, z int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(s.sub.Dom.At(q, x, y, z)))
}

// Set writes quantity q at local coordinate (x, y, z).
func (s *Subdomain) Set(q, x, y, z int, v float32) {
	binary.LittleEndian.PutUint32(s.sub.Dom.At(q, x, y, z), math.Float32bits(v))
}

// ComputeFunc updates one subdomain's interior, reading halos as needed.
type ComputeFunc func(s *Subdomain)

// Step runs `steps` iterations of exchange-then-compute: each step performs
// a full halo exchange, then runs compute as a simulated kernel on every
// GPU (overlappable across GPUs, serialized per GPU). It returns the
// exchange statistics. Compute cost is modeled as a memory-bound sweep of
// the subdomain at the device's effective pack bandwidth.
func (dd *DistributedDomain) Step(steps int, compute ComputeFunc) *Stats {
	if compute == nil {
		return dd.Exchange(steps)
	}
	return dd.ex.RunWithCompute(steps, func(s *exchange.Sub) {
		for _, ps := range dd.subs {
			if ps.sub == s {
				compute(ps)
				return
			}
		}
		panic("stencil: compute on unknown subdomain")
	})
}

// VirtualTime returns the current simulated clock of the underlying engine,
// useful when composing multiple measured phases.
func (dd *DistributedDomain) VirtualTime() sim.Time { return dd.ex.Eng.Now() }

// Preempted reports whether a run was stopped early by Config.Preempt.
func (dd *DistributedDomain) Preempted() bool { return dd.ex.Preempted() }
