package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// loggedWaypoint records every arrival commit (instant, node) so the fuzzer
// compares the order of effective steps, not only the end state.
type loggedWaypoint struct {
	*RandomWaypoint
	log *[]string
}

func (l loggedWaypoint) CommitArrival(n *Network, node *Node) {
	*l.log = append(*l.log, fmt.Sprintf("%v %s", n.Sim().Now(), node.ID))
	l.RandomWaypoint.CommitArrival(n, node)
}

// FuzzMobilityWake runs a small crowd twice under a fuzz-chosen model,
// dwell, duration and down/up toggle script: once with sparse ticking
// (parked members woken by scheduler events) and once densely, every member
// every tick. Both runs must fingerprint equal and commit the same arrivals
// in the same order, so sparse ticking never loses a member, never steps
// one twice in a tick, and steps members in member order.
//
// Layout: data[0] model (waypoint, static, waypath), data[1] crowd size
// 16..48, data[2] dwell in seconds, data[3] run length, then (node, when)
// pairs, each toggling a node down or up at when quarter-seconds, so
// toggles land both on tick instants and between them.
func FuzzMobilityWake(f *testing.F) {
	// Rejoin during a pause: crowd members arrive within a few ticks and
	// dwell 10 s; several go down at 3 s and rejoin at 5 s. The rejoin arms
	// the next tick, which leaves the pending dwell-end batch entry stale
	// until the rejoin step re-arms the same tick.
	f.Add([]byte{0, 0, 10, 40, 0, 12, 1, 12, 2, 12, 3, 12, 0, 20, 1, 20, 2, 20, 3, 20})
	// Down/up inside one pause, between two ticks: the rejoin step re-arms
	// each member for the dwell-end tick it is already batched for, so that
	// tick's next-tick list holds it twice.
	f.Add([]byte{0, 8, 12, 50, 0, 25, 1, 25, 2, 25, 3, 25, 4, 25, 5, 25, 0, 27, 1, 27, 2, 27, 3, 27, 4, 27, 5, 27})
	// Static: nothing is ever armed except by a rejoin, which steps once
	// and parks again.
	f.Add([]byte{1, 0, 0, 20, 0, 4, 0, 8, 9, 9, 9, 30})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 16 + int(data[1])%33
		pause := time.Duration(data[2]%20) * time.Second
		ticks := 10 + time.Duration(data[3]%90)
		script := data[4:]
		if len(script) > 64 {
			script = script[:64]
		}
		run := func(dense bool) (string, []string) {
			var log []string
			var model MobilityModel
			switch data[0] % 3 {
			case 0:
				model = loggedWaypoint{&RandomWaypoint{FieldW: 60, FieldH: 60, SpeedMin: 10, SpeedMax: 30, Pause: pause}, &log}
			case 1:
				model = Static{}
			default:
				model = &Waypath{Speed: 7, Points: []Position{{X: 10, Y: 10}, {X: 50, Y: 20}, {X: 30, Y: 55}}}
			}
			if dense {
				model = hideQuiescer(model)
			}
			sim := NewSim(5)
			net := NewNetwork(sim)
			rng := rand.New(rand.NewSource(5))
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("n%02d", i)
				net.AddNode(ids[i], Position{X: rng.Float64() * 60, Y: rng.Float64() * 60}, AdHoc)
			}
			net.StartMobility(model, time.Second, ids...)
			for k := 0; k+1 < len(script); k += 2 {
				id := ids[int(script[k])%n]
				sim.Schedule(time.Duration(script[k+1])*250*time.Millisecond, func() {
					net.SetUp(id, !net.Node(id).Up)
				})
			}
			sim.Run(ticks * time.Second)
			return crowdFingerprint(net) + fmt.Sprint(sim.Rand().Int63()), log
		}
		sparse, sparseLog := run(false)
		dense, denseLog := run(true)
		if fmt.Sprint(sparseLog) != fmt.Sprint(denseLog) {
			t.Fatalf("arrival commits diverged:\nsparse: %v\ndense:  %v", sparseLog, denseLog)
		}
		if sparse != dense {
			t.Fatalf("sparse ticking diverged from dense:\nsparse:\n%s\ndense:\n%s", sparse, dense)
		}
	})
}
