package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesTheProgram keeps the declared metrics and
// workloads in step with what the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
}
