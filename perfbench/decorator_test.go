package main

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

// smallMetro keeps the metro's density, speeds and dwells on a smaller
// field, with enough movers for the region-sharded two-phase tick.
func smallMetro() *simShape {
	s := metro
	s.residents, s.kiosks, s.field = 3000, 9, 3900
	s.warmup, s.duration = 10*time.Second, 30*time.Second
	return &s
}

func TestDecoratedMetroMatchesUndecorated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two crowds")
	}
	s := smallMetro()
	plain, err := s.rep(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := s.rep(3, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if plain.fingerprint != traced.fingerprint {
		t.Fatalf("decorated run counts %s, undecorated %s", traced.counts, plain.counts)
	}
	L := traced.layers
	// Planner forwarded: the tick planned on the worker pool.
	if L["netsim.mobility.plan_calls"] == 0 || L["netsim.mobility.commit_s"] == 0 {
		t.Errorf("no parallel planning seen: plan calls %v, commit %v s",
			L["netsim.mobility.plan_calls"], L["netsim.mobility.commit_s"])
	}
	// Quiescer forwarded: dwelling residents were parked, not ticked (dense
	// ticking plans every resident every tick, a ratio of exactly 1).
	if r := L["netsim.mobility.active_ratio"]; r <= 0 || r >= 0.99 {
		t.Errorf("active ratio %v: parking not forwarded", r)
	}
	if L["transport.recv_frames.beacon"] == 0 || L["netsim.broadcast_calls"] == 0 {
		t.Errorf("endpoint decorator saw no beacons: %v", L)
	}
}

// bare implements only MobilityModel.
type bare struct{}

func (bare) Init(*netsim.Network, *netsim.Node)                {}
func (bare) Step(*netsim.Network, *netsim.Node, time.Duration) {}

type bareQuiescer struct{ bare }

func (bareQuiescer) NextDue(*netsim.Node, time.Duration) (time.Duration, bool) { return 0, false }

type barePlanner struct{ bare }

func (barePlanner) PlanStep(*netsim.Node, time.Duration, time.Duration) (netsim.Position, bool, bool) {
	return netsim.Position{}, false, false
}
func (barePlanner) CommitArrival(*netsim.Network, *netsim.Node) {}

func TestWrapMobilityForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	for _, c := range []struct {
		m                 netsim.MobilityModel
		planner, quiescer bool
	}{
		{bare{}, false, false},
		{bareQuiescer{}, false, true},
		{barePlanner{}, true, false},
		{&netsim.RandomWaypoint{}, true, true},
	} {
		w, _ := wrapMobility(c.m)
		_, p := w.(netsim.Planner)
		_, q := w.(netsim.Quiescer)
		if p != c.planner || q != c.quiescer {
			t.Errorf("%T: wrapper Planner=%v Quiescer=%v, want %v %v", c.m, p, q, c.planner, c.quiescer)
		}
	}
}
