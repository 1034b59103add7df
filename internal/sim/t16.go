package sim

import (
	"fmt"
	"time"

	"logmob/internal/scenario"
)

// T16 parameters: the megacity — an order of magnitude beyond T15's
// metropolis. One million residents across a 30km-square conurbation with a
// 10x10 lattice of district kiosks, all four mobile-code paradigms at once.
// The density matches T15 (~5 radio neighbors), so what changes is pure
// scale — and scale is exactly what the PR-10 engine work buys: beacon
// cadence costs one timing-wheel slot per interval instead of a million heap
// entries, the scheduler arms in O(1), and mobility planning streams each
// worker through the grid regions it owns.
const (
	t16Residents = 1000000
	t16Kiosks    = 100     // 10x10 district lattice
	t16Field     = 30000.0 // metres square
	t16Couriers  = 32
)

// T16 is the megacity capstone for the timing-wheel scheduler + batched
// beacon cadence + locality-sharded planning: T15 proved 100k nodes, this
// proves 1M under the exact same bit-identical determinism contract — the
// rendered tables are identical at any -workers count, and every
// pre-existing golden is unchanged by the engine that makes this population
// tractable.
func T16() Experiment {
	return FromSpec("T16", "Megacity: 1M nodes, wheel-scheduled beacons",
		`"the increasing popularity of powerful, small-factor computing `+
			`devices" — taken to its limit: one million residents on one ad-hoc `+
			`field, with Client/Server, Remote Evaluation, Code-on-Demand and `+
			`Mobile-Agent workloads racing over the same crowd. Tractable only `+
			`because a beacon interval costs one timing-wheel slot for the whole `+
			`city (not a timer per host), scheduling is O(1) in queue depth, and `+
			`each planning worker streams the districts it owns.`,
		map[string]float64{
			"residents": t16Residents,
			"kiosks":    t16Kiosks,
			"field":     t16Field,
			"range":     t15Range,
			"couriers":  t16Couriers,
			"duration":  300, // seconds of post-warmup run
		},
		t16Spec,
		"expected shape: identical to the metropolis — permit rollout reaches kiosk-adjacent dwellers, couriers cross districts on carried hops, CS/REV complete near kiosks — at 10x the population, byte-identical per seed at any -workers count",
	)
}

// t16Spec declares the megacity for one parameter set. The world is the
// metropolis world — same kiosk lattice, same trip/dwell rhythm, same four
// workloads — at megacity scale: the engine, not the scenario, is what T16
// exists to prove, so the paths under test stay exactly the ones every T15
// golden pins.
func t16Spec(p map[string]float64) *scenario.Spec {
	sp := t15Spec(p)
	sp.Name = "Megacity"
	duration := time.Duration(p["duration"]) * time.Second
	sp.TableTitle = fmt.Sprintf(
		"Table T16: %d residents + %d kiosks, %gx%gm conurbation, range %gm, %v deadline",
		int(p["residents"]), int(p["kiosks"]), p["field"], p["field"], p["range"], duration)
	return sp
}
