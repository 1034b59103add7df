package main

import "testing"

// TestClosedLoopsPassTheirChecks runs one repetition of each closed loop,
// untraced and traced, and requires every operation to pass its check.
func TestClosedLoopsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the closed loops")
	}
	for name, wl := range map[string]workload{"kernel": &kernelWL{}, "wire": &wireWL{}} {
		for _, tr := range []*tracer{nil, newTracer()} {
			r, err := wl.rep(2, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.failed != 0 || r.attempted != opsPerRep {
				t.Errorf("%s traced=%v: %d of %d failed, first: %v", name, tr != nil, r.failed, r.attempted, r.firstErr)
			}
			if tr != nil && r.layers["agent.completed"] != opsPerRep/4 {
				t.Errorf("%s: %v agents completed, want %d", name, r.layers["agent.completed"], opsPerRep/4)
			}
		}
	}
}
