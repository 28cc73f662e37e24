package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics a
// run reports in step: same names, same order, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the run reports %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), run reports %s (%s)", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the run reports %d", len(spec.PerLayer), len(layerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerNames[i].name || m.Unit != layerNames[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), run reports %s (%s)", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
	for _, w := range spec.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Work), len(workloads))
	}
}
