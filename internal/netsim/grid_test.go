package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// checkAgainstOracle asserts that every grid-backed connectivity query
// agrees exactly — same sets, same order — with the retained linear-scan
// oracles on the network's current topology.
func checkAgainstOracle(t *testing.T, net *Network, names []string, rng *rand.Rand, stage string) {
	t.Helper()
	for _, id := range names {
		got := net.Neighbors(id)
		want := net.neighborsLinear(id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Neighbors(%s) = %v, oracle %v", stage, id, got, want)
		}
	}
	n := len(names)
	for i := 0; i < 4*n; i++ {
		a, b := names[rng.Intn(n)], names[rng.Intn(n)]
		if got, want := net.Connected(a, b), net.connectedLinear(a, b); got != want {
			t.Fatalf("%s: Connected(%s,%s) = %v, oracle %v", stage, a, b, got, want)
		}
	}
	for i := 0; i < n; i++ {
		a, b := names[rng.Intn(n)], names[rng.Intn(n)]
		if got, want := net.Route(a, b), net.routeLinear(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Route(%s,%s) = %v, oracle %v", stage, a, b, got, want)
		}
	}
}

// randomField builds a mixed-class random topology: ad-hoc nodes at the
// default and custom ranges (exercising grid growth), WLAN, and a sprinkle
// of infrastructure nodes.
func randomField(net *Network, rng *rand.Rand, n int, field float64) []string {
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("n%d", i)
		class := AdHoc
		switch rng.Intn(8) {
		case 0:
			class = WLAN
		case 1:
			class = GPRS
		case 2:
			class = LAN
		case 3, 4:
			class.Range = 10 + rng.Float64()*150
		}
		class.Loss = 0
		net.AddNode(names[i], Position{X: rng.Float64() * field, Y: rng.Float64() * field}, class)
	}
	return names
}

// TestGridMatchesLinearOracle fuzzes topologies through joins, moves,
// up/down flips and link cuts, requiring exact agreement with the linear
// oracles after every mutation batch.
func TestGridMatchesLinearOracle(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(trial + 1)
		sim := NewSim(seed)
		net := NewNetwork(sim)
		rng := rand.New(rand.NewSource(seed))
		const field = 400.0
		names := randomField(net, rng, 40+rng.Intn(40), field)
		n := len(names)
		checkAgainstOracle(t, net, names, rng, fmt.Sprintf("trial %d initial", trial))

		for round := 0; round < 6; round++ {
			for i := 0; i < 12; i++ {
				id := names[rng.Intn(n)]
				switch rng.Intn(5) {
				case 0, 1:
					net.SetPos(id, Position{X: rng.Float64() * field, Y: rng.Float64() * field})
				case 2:
					net.SetUp(id, rng.Intn(2) == 0)
				case 3:
					net.CutLink(id, names[rng.Intn(n)])
				case 4:
					net.RestoreLink(id, names[rng.Intn(n)])
				}
			}
			checkAgainstOracle(t, net, names, rng, fmt.Sprintf("trial %d round %d", trial, round))
		}
	}
}

// TestGridMatchesOracleUnderMobility runs random-waypoint mobility (the
// incremental grid-update path) and re-checks oracle agreement at several
// points of the walk.
func TestGridMatchesOracleUnderMobility(t *testing.T) {
	sim := NewSim(42)
	net := NewNetwork(sim)
	rng := rand.New(rand.NewSource(42))
	const field = 300.0
	names := randomField(net, rng, 50, field)
	net.StartMobility(&RandomWaypoint{
		FieldW: field, FieldH: field, SpeedMin: 1, SpeedMax: 8, Pause: time.Second,
	}, time.Second, names...)
	for i := 0; i < 10; i++ {
		sim.RunFor(7 * time.Second)
		checkAgainstOracle(t, net, names, rng, fmt.Sprintf("t=%v", sim.Now()))
	}
}

// TestGridGrowsForWideRangeNode adds a node whose radio range exceeds every
// earlier range: the index must still see its distant neighbors.
func TestGridGrowsForWideRangeNode(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	c := AdHoc // range 30
	c.Loss = 0
	for i := 0; i < 10; i++ {
		net.AddNode(fmt.Sprintf("n%d", i), Position{X: float64(i) * 40}, c)
	}
	wide := c
	wide.Range = 1000
	net.AddNode("wide", Position{X: 180}, wide)
	// Mutual range: wide hears everyone within 1000m whose own 30m range
	// also covers the distance — only n4 (x=160) and n5 (x=200) qualify.
	got := net.Neighbors("wide")
	want := net.neighborsLinear("wide")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(wide) = %v, oracle %v", got, want)
	}
	if len(got) != 2 || got[0] != "n4" || got[1] != "n5" {
		t.Fatalf("Neighbors(wide) = %v, want [n4 n5]", got)
	}
}

// TestUnboundedAdhocRange covers the fallback for a non-infrastructure
// class with an infinite range, which no grid ring can bound.
func TestUnboundedAdhocRange(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	unbounded := LinkClass{Name: "long", Range: math.Inf(1), BandwidthBps: 1e5}
	short := AdHoc
	net.AddNode("u1", Position{X: 0}, unbounded)
	net.AddNode("u2", Position{X: 5000}, unbounded)
	net.AddNode("s", Position{X: 2500}, short)
	for _, id := range []string{"u1", "u2", "s"} {
		got, want := net.Neighbors(id), net.neighborsLinear(id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%s) = %v, oracle %v", id, got, want)
		}
	}
	if got := net.Neighbors("u1"); len(got) != 1 || got[0] != "u2" {
		t.Fatalf("Neighbors(u1) = %v, want [u2]", got)
	}
}

// TestTopologyEpochInvalidation checks that every connectivity-affecting
// mutation advances the epoch and refreshes cached neighbor sets, and that
// no-op mutations do not.
func TestTopologyEpochInvalidation(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	c := AdHoc
	c.Loss = 0
	net.AddNode("a", Position{0, 0}, c)
	net.AddNode("b", Position{10, 0}, c)
	net.AddNode("c", Position{0, 10}, c)

	if got := net.Neighbors("a"); len(got) != 2 {
		t.Fatalf("Neighbors(a) = %v", got)
	}
	e := net.TopologyEpoch()
	if net.Neighbors("a"); net.TopologyEpoch() != e {
		t.Fatal("query alone must not advance the epoch")
	}

	net.SetPos("b", Position{X: 500})
	if net.TopologyEpoch() == e {
		t.Fatal("SetPos did not advance the epoch")
	}
	if got := net.Neighbors("a"); len(got) != 1 || got[0] != "c" {
		t.Fatalf("after move, Neighbors(a) = %v, want [c]", got)
	}

	e = net.TopologyEpoch()
	net.SetUp("c", true) // already up: no-op
	if net.TopologyEpoch() != e {
		t.Fatal("no-op SetUp advanced the epoch")
	}
	net.SetUp("c", false)
	if net.TopologyEpoch() == e {
		t.Fatal("SetUp(down) did not advance the epoch")
	}
	if got := net.Neighbors("a"); got != nil {
		t.Fatalf("after c down, Neighbors(a) = %v, want none", got)
	}

	net.SetUp("c", true)
	e = net.TopologyEpoch()
	net.CutLink("a", "c")
	if net.TopologyEpoch() == e {
		t.Fatal("CutLink did not advance the epoch")
	}
	if got := net.Neighbors("a"); got != nil {
		t.Fatalf("after cut, Neighbors(a) = %v, want none", got)
	}
	e = net.TopologyEpoch()
	net.CutLink("a", "c") // already cut: no-op
	if net.TopologyEpoch() != e {
		t.Fatal("no-op CutLink advanced the epoch")
	}
	net.RestoreLink("c", "a")
	if got := net.Neighbors("a"); len(got) != 1 || got[0] != "c" {
		t.Fatalf("after restore, Neighbors(a) = %v, want [c]", got)
	}
}

// TestBroadcastSharesOnePayloadCopy verifies the one-copy-per-broadcast
// contract: every receiver observes the same backing array, and mutating
// the caller's buffer after Broadcast does not alter deliveries.
func TestBroadcastSharesOnePayloadCopy(t *testing.T) {
	sim := NewSim(1)
	net := NewNetwork(sim)
	c := AdHoc
	c.Loss = 0
	net.AddNode("src", Position{0, 0}, c)
	net.AddNode("r1", Position{10, 0}, c)
	net.AddNode("r2", Position{0, 10}, c)
	var got []([]byte)
	for _, id := range []string{"r1", "r2"} {
		net.SetHandler(id, func(_ string, p []byte) { got = append(got, p) })
	}
	buf := []byte("payload")
	if n := net.Broadcast("src", buf); n != 2 {
		t.Fatalf("Broadcast = %d, want 2", n)
	}
	buf[0] = 'X' // caller overwrites its buffer; deliveries must be unaffected
	sim.RunUntilIdle(0)
	if len(got) != 2 || string(got[0]) != "payload" || string(got[1]) != "payload" {
		t.Fatalf("deliveries = %q", got)
	}
	if &got[0][0] != &got[1][0] {
		t.Error("receivers got distinct payload copies; want one shared copy")
	}
}

// TestSetPosUnknownNode must be a no-op, like SetUp on an unknown node.
func TestSetPosUnknownNode(t *testing.T) {
	net := NewNetwork(NewSim(1))
	net.SetPos("ghost", Position{1, 1})
}
