package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	stencil "github.com/nodeaware/stencil"
	"github.com/nodeaware/stencil/internal/telemetry"
)

// faultEvents runs a small nvlink-kill job with adaptation and telemetry and
// writes its NDJSON event log, exercising the real pipeline end to end.
func faultEvents(t *testing.T) string {
	t.Helper()
	tel := stencil.NewTelemetry()
	sc := &stencil.FaultScenario{Name: "test"}
	sc.KillNVLink(1e-4, 0, 0, 1, 0)
	dd, err := stencil.New(stencil.Config{
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
	})
	if err != nil {
		t.Fatal(err)
	}
	dd.Exchange(4)
	path := filepath.Join(t.TempDir(), "events.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tel.WriteEvents(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportMode: the report digests a real event log into the three
// sections — phase breakdown, hot links, and the method-flip ledger showing
// the fault and the demotions it caused.
func TestReportMode(t *testing.T) {
	path := faultEvents(t)
	var buf strings.Builder
	if err := run([]string{"-events", path, "-top", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"per-phase breakdown", "exchange", "setup.specialization",
		"hottest links", "nvlink",
		"method ledger:", "fault link-fail", "-> STAGED", "method flips",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReportModeMissingFile(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-events", "/nonexistent.ndjson"}, &buf); err == nil {
		t.Error("expected error for missing event log")
	}
}

func mkReport(t *testing.T, dir, name string, v float64) string {
	t.Helper()
	r := telemetry.New()
	r.Counter("c").Add(v)
	rep := &telemetry.Report{Schema: telemetry.SchemaVersion, Tool: "test",
		Runs: []telemetry.ReportRun{{Config: "cfg", Snapshot: r.Snapshot()}}}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.WriteReport(f, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffMode: matching reports pass, drifted values beyond tolerance fail
// with a nonzero (error) result — the CI gate contract.
func TestDiffMode(t *testing.T) {
	dir := t.TempDir()
	ref := mkReport(t, dir, "ref.json", 100)
	same := mkReport(t, dir, "same.json", 101)
	far := mkReport(t, dir, "far.json", 200)

	var buf strings.Builder
	if err := run([]string{"-ref", ref, "-got", same, "-tol", "0.10"}, &buf); err != nil {
		t.Fatalf("1%% drift rejected at 10%% tolerance: %v", err)
	}
	if !strings.Contains(buf.String(), "metrics match") {
		t.Errorf("missing match confirmation:\n%s", buf.String())
	}
	if err := run([]string{"-ref", ref, "-got", far, "-tol", "0.10"}, &buf); err == nil {
		t.Error("100% drift passed a 10% tolerance")
	}
}

func TestDiffModeNeedsBothFiles(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-ref", "only-one.json"}, &buf); err == nil {
		t.Error("expected error when -got is missing")
	}
}

func TestNoArgs(t *testing.T) {
	var buf strings.Builder
	if err := run(nil, &buf); err == nil {
		t.Error("expected error with no mode selected")
	}
}
