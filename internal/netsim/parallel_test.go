package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// buildCrowd builds a deterministic roaming ad-hoc crowd: n nodes scattered
// over a field sized for a few radio neighbors each, all under random
// waypoint, with every node broadcasting a small frame every beaconIvl (the
// burst that makes the whole field's neighbor sets hot at one epoch).
func buildCrowd(seed int64, n, workers int, beaconIvl time.Duration) (*Sim, *Network) {
	return buildCrowdOn(NewSim(seed), seed, n, workers, beaconIvl, nil)
}

// buildCrowdOn is buildCrowd over a caller-supplied simulator, so the
// wheel-vs-heap scheduler differential can run the same crowd on both event
// queue engines. wrap, when non-nil, wraps the crowd's waypoint model (see
// hidePlanner).
func buildCrowdOn(sim *Sim, seed int64, n, workers int, beaconIvl time.Duration, wrap func(*RandomWaypoint) MobilityModel) (*Sim, *Network) {
	net := NewNetwork(sim)
	net.SetWorkers(workers)
	field := math.Sqrt(float64(n) * math.Pi * 40 * 40 / 5) // ~5 expected neighbors
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("n%04d", i)
		net.AddNode(ids[i], Position{X: rng.Float64() * field, Y: rng.Float64() * field}, AdHoc)
		net.SetHandler(ids[i], func(string, []byte) {})
	}
	rw := &RandomWaypoint{FieldW: field, FieldH: field, SpeedMin: 1, SpeedMax: 5, Pause: 3 * time.Second}
	var model MobilityModel = rw
	if wrap != nil {
		model = wrap(rw)
	}
	net.StartMobility(model, time.Second, ids...)
	if beaconIvl > 0 {
		payload := make([]byte, 64)
		var burst func()
		burst = func() {
			for _, id := range ids {
				net.Broadcast(id, payload)
			}
			sim.Schedule(beaconIvl, burst)
		}
		sim.Schedule(beaconIvl, burst)
	}
	return sim, net
}

// crowdFingerprint captures everything the parallel engine could have
// perturbed: every node's exact position, traffic account and neighbor set,
// plus the global epoch and clock.
func crowdFingerprint(net *Network) string {
	var sb []byte
	for _, id := range net.Nodes() {
		node := net.Node(id)
		sb = fmt.Appendf(sb, "%s pos=%x,%x usage=%+v nbrs=%v\n",
			id, math.Float64bits(node.Pos().X), math.Float64bits(node.Pos().Y),
			node.Usage(), net.Neighbors(id))
	}
	sb = fmt.Appendf(sb, "epoch=%d now=%v\n", net.TopologyEpoch(), net.Sim().Now())
	return string(sb)
}

// stepOnly re-exposes a model with its Planner split hidden and its
// Quiescer kept, so Mobility steps it node by node through Step.
type stepOnly struct {
	MobilityModel
	Quiescer
}

// hidePlanner wraps m as stepOnly: the per-node serial reference the
// plan → commit pipeline must match bit for bit at every worker count.
func hidePlanner(m *RandomWaypoint) MobilityModel { return stepOnly{m, m} }

// TestTwoPhaseTickMatchesSerial is the netsim-level differential: the same
// seeded crowd stepped node by node through Step and run through the
// plan → commit pipeline at every worker count must end bit-identical —
// positions, RNG-dependent loss accounting, neighbor sets and topology
// epochs all included.
func TestTwoPhaseTickMatchesSerial(t *testing.T) {
	const n = 400
	run := func(workers int, wrap func(*RandomWaypoint) MobilityModel) string {
		sim, net := buildCrowdOn(NewSim(42), 42, n, workers, 5*time.Second, wrap)
		sim.Run(60 * time.Second)
		return crowdFingerprint(net)
	}
	serial := run(1, hidePlanner)
	for _, w := range []int{1, 2, 4, 8} {
		if got := run(w, nil); got != serial {
			t.Fatalf("workers=%d diverged from the Step reference (fingerprints differ)", w)
		}
	}
}

// TestShardedMoveCommitMatchesSerial drives commitMoves' region-sharded
// pass: a crowd fast enough that most walkers change cell every tick, with
// an infrastructure node walking among them. One measured tick must move
// at least regionMoveParallelMin nodes to another cell of their region,
// after which the grid must agree with a rescan and the whole world with
// the Step reference.
func TestShardedMoveCommitMatchesSerial(t *testing.T) {
	const n, field, ticks = 800, 1920.0, 10
	build := func(workers int, wrap func(*RandomWaypoint) MobilityModel) (*Sim, *Network) {
		sim := NewSim(5)
		net := NewNetwork(sim)
		net.SetWorkers(workers)
		rng := rand.New(rand.NewSource(5))
		ids := make([]string, n, n+1)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%04d", i)
			net.AddNode(ids[i], Position{X: rng.Float64() * field, Y: rng.Float64() * field}, AdHoc)
		}
		net.AddNode("infra", Position{X: field / 2, Y: field / 2}, LAN)
		ids = append(ids, "infra")
		rw := &RandomWaypoint{FieldW: field, FieldH: field, SpeedMin: 25, SpeedMax: 35}
		var model MobilityModel = rw
		if wrap != nil {
			model = wrap(rw)
		}
		net.StartMobility(model, time.Second, ids...)
		return sim, net
	}
	fingerprint := func(sim *Sim, net *Network) string {
		return crowdFingerprint(net) + fmt.Sprint(sim.Rand().Int63())
	}
	refSim, refNet := build(1, hidePlanner)
	refSim.Run(ticks * time.Second)
	want := fingerprint(refSim, refNet)
	for _, w := range []int{2, 8} {
		sim, net := build(w, nil)
		sim.Run((ticks - 1) * time.Second)
		before := make([]Position, len(net.list))
		for i, node := range net.list {
			before[i] = node.Pos()
		}
		sim.RunFor(time.Second)
		sameRegion := 0
		for i, node := range net.list {
			from, to := net.grid.keyFor(before[i]), net.grid.keyFor(node.Pos())
			if !node.infra && from != to && regionOf(from) == regionOf(to) {
				sameRegion++
			}
		}
		if sameRegion < regionMoveParallelMin {
			t.Fatalf("workers=%d: only %d same-region cell moves in the measured tick, want >= %d",
				w, sameRegion, regionMoveParallelMin)
		}
		if infra := net.Node("infra"); infra.Pos() == before[infra.orderIdx] {
			t.Fatalf("workers=%d: the infrastructure walker did not move in the measured tick", w)
		}
		auditGrid(t, net, field)
		if got := fingerprint(sim, net); got != want {
			t.Fatalf("workers=%d diverged from the Step reference (fingerprints differ)", w)
		}
	}
}

// TestWarmedCachesMatchLinearOracle forces the parallel warm path and
// checks every warmed neighbor set against the pre-grid linear-scan oracle.
func TestWarmedCachesMatchLinearOracle(t *testing.T) {
	sim, net := buildCrowd(7, 300, 4, 0)
	sim.Run(10 * time.Second) // mobility has churned the topology
	// Query the whole field at one epoch: this must cross warmThreshold and
	// serve the tail of the burst from warmed caches.
	misses := 0
	for _, id := range net.Nodes() {
		if net.nbrEpochs[net.Node(id).orderIdx] != net.epoch {
			misses++
		}
		got := net.Neighbors(id)
		want := net.neighborsLinear(id)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: warmed neighbors %v != linear oracle %v", id, got, want)
		}
	}
	// The first warmThreshold queries miss lazily; the threshold-th triggers
	// the warm and every later query hits, so the observed miss count lands
	// exactly on the threshold when (and only when) the warm fired.
	if misses != net.warmThreshold() {
		t.Fatalf("test did not exercise the warm path (%d misses, threshold %d)",
			misses, net.warmThreshold())
	}
	// After the burst every cache must be valid at the current epoch.
	for _, id := range net.Nodes() {
		if net.nbrEpochs[net.Node(id).orderIdx] != net.epoch {
			t.Fatalf("%s: cache not warmed (epoch %d != %d)", id, net.nbrEpochs[net.Node(id).orderIdx], net.epoch)
		}
	}
}

// TestGridMatchesRescanAfterParallelTicks runs 1000 parallel mobility ticks
// and then audits the spatial index against a linear rescan of every node:
// each node must be indexed in exactly the cell its position hashes to, cell
// slots must be self-consistent, the node count must match, and a ring
// query must return the same candidate set membership as a full scan.
func TestGridMatchesRescanAfterParallelTicks(t *testing.T) {
	sim, net := buildCrowd(99, 300, 8, 0)
	for i := 0; i < 1000; i++ {
		sim.RunFor(time.Second)
	}
	auditGrid(t, net, 500)
}

// auditGrid checks the spatial index against a linear rescan: every
// ad-hoc node is indexed in exactly the cell its position hashes to with
// self-consistent slot bookkeeping, region and grid counts match, and ring
// queries over a lattice spanning field metres miss no node in range.
func auditGrid(t *testing.T, net *Network, field float64) {
	t.Helper()
	g := net.grid
	indexed := 0
	for rk, reg := range g.regions {
		regCount := 0
		for li, cell := range reg.cells {
			key := cellKey{
				cx: rk.rx<<regionShift + int32(li)&regionMask,
				cy: rk.ry<<regionShift + int32(li)>>regionShift,
			}
			for slot, node := range cell {
				indexed++
				regCount++
				if node.infra {
					t.Fatalf("infra node %s found in grid", node.ID)
				}
				if got := g.keyFor(node.gridPos); got != key {
					t.Fatalf("%s indexed in cell %v but position hashes to %v", node.ID, key, got)
				}
				if node.cell != key || node.cellSlot != slot {
					t.Fatalf("%s bookkeeping (cell=%v slot=%d) disagrees with location (cell=%v slot=%d)",
						node.ID, node.cell, node.cellSlot, key, slot)
				}
				if node.gridPos != node.Pos() {
					t.Fatalf("%s grid position %v stale vs actual %v", node.ID, node.gridPos, node.Pos())
				}
			}
		}
		if regCount != reg.count {
			t.Fatalf("region %v count says %d but holds %d nodes", rk, reg.count, regCount)
		}
		if regCount == 0 {
			t.Fatalf("region %v retained while empty", rk)
		}
	}
	if adhoc := len(net.list) - len(net.infra); indexed != g.count || indexed != adhoc {
		t.Fatalf("grid indexes %d nodes, count says %d, network has %d ad-hoc nodes",
			indexed, g.count, adhoc)
	}
	// Ring queries vs linear rescan on a lattice of probe points.
	for qx := 0.0; qx <= 1; qx += 0.25 {
		for qy := 0.0; qy <= 1; qy += 0.25 {
			center := Position{X: qx * field, Y: qy * field}
			const radius = 60.0
			got := map[string]bool{}
			for _, node := range g.appendWithin(center, radius, nil) {
				got[node.ID] = true
			}
			for _, id := range net.Nodes() {
				node := net.Node(id)
				if !node.infra && node.Pos().Dist(center) <= radius && !got[id] {
					t.Fatalf("linear rescan finds %s within %gm of %v but the grid ring misses it",
						id, radius, center)
				}
			}
		}
	}
}

// TestSetWorkersResolution pins the knob semantics: <=0 is GOMAXPROCS,
// explicit values stick.
func TestSetWorkersResolution(t *testing.T) {
	net := NewNetwork(NewSim(1))
	if net.Workers() != 1 {
		t.Fatalf("default workers = %d, want 1", net.Workers())
	}
	net.SetWorkers(6)
	if net.Workers() != 6 {
		t.Fatalf("Workers() = %d after SetWorkers(6)", net.Workers())
	}
	net.SetWorkers(0)
	if net.Workers() != AutoWorkers() {
		t.Fatalf("SetWorkers(0) resolved to %d, want AutoWorkers()=%d", net.Workers(), AutoWorkers())
	}
}

// TestRunShardedCoversRange checks the fan-out helper partitions exactly.
func TestRunShardedCoversRange(t *testing.T) {
	for _, count := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 3, 8, 2000} {
			covered := make([]int32, count)
			var spans [][2]int
			var mu = make(chan struct{}, 1)
			mu <- struct{}{}
			runSharded(count, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i]++
				}
				<-mu
				spans = append(spans, [2]int{lo, hi})
				mu <- struct{}{}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("count=%d workers=%d: index %d covered %d times (spans %v)",
						count, workers, i, c, spans)
				}
			}
		}
	}
}
