package discovery

import (
	"time"

	"logmob/internal/transport"
)

// BeaconBatch drives the cadence of beacons sharing one interval from a
// single scheduler callback; it is the only beacon cadence. A beacon started
// on its own is the sole member of a batch of one, and a city of hosts in
// one batch keeps one timer alive instead of one per host. Each tick
// broadcasts for the running members in the order they were added (worlds
// add in canonical node order), sharing one scratch buffer for frame
// rebuilds. A member broadcasts the moment it starts; a stopped member is
// skipped, and the last one to stop cancels the timer. A start while the
// batch is idle re-arms it one interval on, so a batch of one keeps a lone
// beacon's exact Stop/Start timing.
type BeaconBatch struct {
	sched    transport.Scheduler
	interval time.Duration
	members  []*Beacon
	scratch  []string
	running  int    // members currently beaconing
	stop     func() // cancels the armed tick; nil while the batch is idle
}

// NewBeaconBatch returns an empty batch broadcasting every interval.
func NewBeaconBatch(sched transport.Scheduler, interval time.Duration) *BeaconBatch {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &BeaconBatch{sched: sched, interval: interval}
}

// Add registers b and starts it under the batch's cadence: the first beacon
// broadcasts immediately, subsequent ones ride the shared tick. b must have
// been built with the batch's interval — the batch drives when beacons go
// out, but miss-eviction deadlines and TTL defaults still read b.interval.
// A beacon belongs to one batch for life, and a beacon started on its own
// already owns a batch of one, so Add panics on either; add beacons before
// starting them.
func (g *BeaconBatch) Add(b *Beacon) {
	if b.interval != g.interval {
		panic("discovery: beacon interval differs from its batch")
	}
	if b.batch == g {
		return
	}
	if b.batch != nil {
		panic("discovery: beacon already owned by another batch")
	}
	b.batch = g
	g.members = append(g.members, b)
	g.start(b)
}

// start runs member b: it broadcasts at once, and an idle batch re-arms.
func (g *BeaconBatch) start(b *Beacon) {
	b.running = true
	g.running++
	g.scratch = b.tickOnce(g.scratch)
	if g.stop == nil {
		g.stop = g.sched.After(g.interval, g.tick)
	}
}

// halt stops member b; the last running member's halt cancels the tick.
func (g *BeaconBatch) halt(b *Beacon) {
	b.running = false
	g.running--
	if g.running == 0 {
		g.stop()
		g.stop = nil
	}
}

func (g *BeaconBatch) tick() {
	for _, b := range g.members {
		if b.running {
			g.scratch = b.tickOnce(g.scratch)
		}
	}
	g.stop = g.sched.After(g.interval, g.tick)
}

// Len returns the number of registered members, running or not.
func (g *BeaconBatch) Len() int { return len(g.members) }

// Stop halts every member, which leaves the batch idle. Members can be
// restarted individually afterwards; the first to start re-arms the batch.
func (g *BeaconBatch) Stop() {
	for _, b := range g.members {
		b.Stop()
	}
}
