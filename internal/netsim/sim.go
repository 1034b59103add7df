// Package netsim is a deterministic discrete-event simulator of the wireless
// environments the paper targets: ad-hoc piconets, wireless LANs, GPRS-style
// costed infrastructure links and fixed LANs.
//
// The simulator provides a virtual clock, a cancellable event queue, a node
// and link model with radio range, per-class bandwidth/latency/loss, per-byte
// monetary cost and energy, node mobility models, and exact per-node traffic
// accounting. All experiment claims about traffic volume, airtime and
// connectivity cost are measured against this substrate.
//
// The event loop is single-goroutine: handlers run inside Run and must not
// block. Determinism comes from the virtual clock plus a seeded PRNG; a
// given seed always reproduces the same run. At scale, the bulk per-tick
// work — mobility integration and neighbor-set recomputation — runs as a
// two-phase pipeline sharded across a worker pool (Network.SetWorkers):
// phase 1 computes in parallel against a read-only topology snapshot,
// phase 2 commits mutations and RNG draws serially in canonical node order,
// so results stay bit-identical to the serial engine at any worker count.
// See parallel.go.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
)

// Sim is a discrete-event scheduler with a virtual clock.
type Sim struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	seed  int64
	// free holds recycled delivery events. Only typed delivery events land
	// here: they are created internally and never handed to callers, so no
	// outside reference can observe the reuse. Events returned by Schedule
	// (and the cancel closures from After) are never recycled.
	free []*Event
}

// NewSim returns a simulator whose PRNG is seeded with seed. Identical seeds
// yield identical runs. The event queue is a hashed hierarchical timing
// wheel (see schedwheel.go) that fires events in (time, sequence) order.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), seed: seed, queue: newWheelQueue()}
}

// Seed returns the seed the simulator was built with, so derived RNG
// streams (e.g. the netsim fault RNG) stay reproducible per run.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded PRNG.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Event is a scheduled callback. Cancel prevents a pending event from firing.
type Event struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool

	// Typed delivery form: when dst is non-nil the event is a network
	// message delivery and fn is nil. Keeping the delivery parameters in
	// the event itself (instead of a per-message closure) lets the hot
	// transmit path run without allocating, and lets fired events return
	// to the simulator's free list. The endpoints travel as node pointers,
	// so delivery needs no lookup by name.
	src    *Node
	dst    *Node
	data   []byte
	air    time.Duration
	pooled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero. Events scheduled for the same instant fire in scheduling order.
func (s *Sim) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	e := &Event{at: s.now + delay, seq: s.seq, fn: fn}
	s.seq++
	s.queue.push(e)
	return e
}

// scheduleDelivery schedules a typed message-delivery event: the
// closure-free fast path the Network uses for deliveries. The event comes
// from (and returns to) the simulator's free list, which is safe because
// delivery events are never exposed to callers. Ordering is identical to
// Schedule: same clock, same sequence counter.
func (s *Sim) scheduleDelivery(delay time.Duration, src, dst *Node, data []byte, air time.Duration, pooled bool) {
	if delay < 0 {
		delay = 0
	}
	var e *Event
	if k := len(s.free); k > 0 {
		e = s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	} else {
		e = &Event{}
	}
	e.at = s.now + delay
	e.seq = s.seq
	e.src = src
	e.dst = dst
	e.data = data
	e.air = air
	e.pooled = pooled
	s.seq++
	s.queue.push(e)
}

// fire executes a popped event. Typed delivery events are recycled into the
// free list first (their parameters are copied out), so the delivery handler
// can immediately reuse the event for anything it schedules. Plain callback
// events were handed to their scheduler and are never recycled.
func (s *Sim) fire(e *Event) {
	if e.dst == nil {
		e.fn()
		return
	}
	src, dst, data, air, pooled := e.src, e.dst, e.data, e.air, e.pooled
	*e = Event{}
	s.free = append(s.free, e)
	dst.net.deliver(src, dst, data, air, pooled)
}

// Step fires the earliest pending event. It returns false when no events
// remain.
func (s *Sim) Step() bool {
	e := s.queue.pop()
	if e == nil {
		return false
	}
	if e.at > s.now {
		s.now = e.at
	}
	s.fire(e)
	return true
}

// Run fires events until the virtual clock would pass until, then sets the
// clock to until. Events at exactly until do fire.
func (s *Sim) Run(until time.Duration) {
	for {
		e := s.queue.peek()
		if e == nil || e.at > until {
			break
		}
		s.queue.pop()
		if e.at > s.now {
			s.now = e.at
		}
		s.fire(e)
	}
	if until > s.now {
		s.now = until
	}
}

// RunFor advances the clock by d, firing events due in that window.
func (s *Sim) RunFor(d time.Duration) {
	s.Run(s.now + d)
}

// RunUntilIdle fires events until the queue is empty. It panics after
// maxEvents events as a guard against runaway recurring schedules; pass 0 for
// the default of 50 million.
func (s *Sim) RunUntilIdle(maxEvents int) {
	if maxEvents <= 0 {
		maxEvents = 50_000_000
	}
	for i := 0; s.Step(); i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("netsim: RunUntilIdle exceeded %d events", maxEvents))
		}
	}
}

// Pending returns the number of events in the queue, including cancelled
// events that have not yet been discarded.
func (s *Sim) Pending() int { return s.queue.len() }

// After implements the transport.Scheduler contract: it schedules fn after d
// and returns a cancel function.
func (s *Sim) After(d time.Duration, fn func()) func() {
	e := s.Schedule(d, fn)
	return e.Cancel
}
