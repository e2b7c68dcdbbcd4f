package stencil_test

import (
	"bytes"
	"testing"

	stencil "github.com/nodeaware/stencil"
)

// telemetryConfig is a small faulted adaptive job: it exercises every
// telemetry source at once — link samples, spans, op records, fault and
// adapt events.
func telemetryConfig(tel *stencil.Telemetry) stencil.Config {
	sc := &stencil.FaultScenario{Name: "det"}
	sc.KillNVLink(1e-4, 0, 0, 1, 0)
	return stencil.Config{
		Nodes:        1,
		RanksPerNode: 2,
		Domain:       stencil.Dim3{X: 24, Y: 24, Z: 24},
		Radius:       1,
		Quantities:   2,
		Caps:         stencil.CapsAll(),
		NodeAware:    true,
		Fault:        sc,
		Adaptive:     true,
		Telemetry:    tel,
	}
}

// TestTelemetryDeterministic: two identical runs must export byte-identical
// NDJSON event logs, JSON snapshots, and Prometheus text — the determinism
// guarantee DESIGN.md documents and the golden snapshot relies on.
func TestTelemetryDeterministic(t *testing.T) {
	record := func() *stencil.Telemetry {
		tel := stencil.NewTelemetry()
		dd, err := stencil.New(telemetryConfig(tel))
		if err != nil {
			t.Fatal(err)
		}
		dd.Exchange(4)
		return tel
	}
	a, b := record(), record()

	var bufA, bufB bytes.Buffer
	if err := a.WriteEvents(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteEvents(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.Len() == 0 {
		t.Fatal("no events recorded")
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("NDJSON event logs differ across identical runs")
	}

	bufA.Reset()
	bufB.Reset()
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("JSON snapshots differ across identical runs")
	}

	bufA.Reset()
	bufB.Reset()
	if err := a.WritePrometheus(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheus(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("Prometheus exports differ across identical runs")
	}
}

// TestTelemetryDoesNotPerturb: attaching a recorder must not move a single
// simulated timestamp — every hook observes at points the simulation already
// visits.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	runStats := func(tel *stencil.Telemetry) *stencil.Stats {
		cfg := telemetryConfig(tel)
		dd, err := stencil.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dd.Exchange(4)
	}
	plain := runStats(nil)
	observed := runStats(stencil.NewTelemetry())
	if len(plain.Iterations) != len(observed.Iterations) {
		t.Fatalf("iteration count changed: %d vs %d", len(plain.Iterations), len(observed.Iterations))
	}
	for i := range plain.Iterations {
		if plain.Iterations[i] != observed.Iterations[i] {
			t.Errorf("iteration %d: %g without telemetry, %g with (must be bit-identical)",
				i, plain.Iterations[i], observed.Iterations[i])
		}
	}
}

// TestTelemetryParallelWorkers: the hooks run only in engine event context,
// so a parallel payload executor must still produce the identical event log.
func TestTelemetryParallelWorkers(t *testing.T) {
	record := func(workers int) *bytes.Buffer {
		tel := stencil.NewTelemetry()
		sc := &stencil.FaultScenario{Name: "det"}
		sc.KillNVLink(1e-4, 0, 0, 1, 0)
		dd, err := stencil.New(stencil.Config{
			Nodes:        1,
			RanksPerNode: 2,
			Domain:       stencil.Dim3{X: 24, Y: 24, Z: 24},
			Radius:       1,
			Quantities:   2,
			Caps:         stencil.CapsAll(),
			NodeAware:    true,
			RealData:     true,
			Fault:        sc,
			Adaptive:     true,
			Telemetry:    tel,
			Workers:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		dd.Exchange(3)
		var buf bytes.Buffer
		if err := tel.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	seq, par := record(0), record(4)
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Error("event log differs between sequential and parallel payload execution")
	}
}
