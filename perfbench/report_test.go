package main

import (
	"encoding/json"
	"os"
	"testing"
)

// Every metric name the benchmark can print follows the name pattern and
// is declared once.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if !metricName.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("metric name %q does not match %s (or is longer than 64)", m.name, metricName)
			}
			if seen[m.name] {
				t.Errorf("metric %q declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, bad := range []string{"", "has space", "slash/name", ".leading", "ümlaut"} {
		if metricName.MatchString(bad) {
			t.Errorf("pattern accepts %q", bad)
		}
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics and
// workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(code))
			return
		}
		for i := range code {
			if declared[i].Name != code[i].name || declared[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %+v", i, spec.Workloads[i], w)
		}
	}
}
