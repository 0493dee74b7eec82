package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestContractMatchesBenchmarkJSON keeps the names, units, directions, bounds
// and workload reasons the program prints identical to what BENCHMARK.json
// declares.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, program %+v", i, g, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program %+v", i, g, d)
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
}

// TestContractLineFields pins the JSON field names of the last output line.
func TestContractLineFields(t *testing.T) {
	m := metricSet{}
	for _, d := range endToEnd {
		m.set(d.Name, 1.5)
	}
	vals, missing := m.contract(endToEnd)
	if len(missing) != 0 {
		t.Fatalf("missing %v", missing)
	}
	out, err := json.Marshal(contractLine{Correct: true, Attempted: 7, Failed: 0, Metrics: vals})
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("line lacks %q: %s", k, out)
		}
	}
	if len(back) != 4 {
		t.Errorf("line has %d keys, want exactly 4: %s", len(back), out)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(back["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		got, ok := metrics[d.Name]
		if !ok || got["unit"] != d.Unit || got["value"] != 1.5 || len(got) != 2 {
			t.Errorf("metric %s encoded as %v", d.Name, got)
		}
	}
	// Every probe metric must be a declared per-layer metric.
	for _, def := range probeDefs() {
		if def.Name == "" {
			t.Error("a probe lists a metric that perLayer does not define")
		}
	}
}
