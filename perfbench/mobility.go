package main

import (
	"math"
	"sync/atomic"
	"time"

	"logmob/internal/netsim"
)

// mobTimer times a mobility model from outside. Step and CommitArrival run
// on the event loop; PlanStep runs on the tick's worker goroutines, so every
// counter is atomic. The wrapper must expose exactly the optional
// interfaces (Planner, Quiescer) the wrapped model does: dropping Quiescer
// would tick every parked node densely and dropping Planner would serialise
// the tick, so the benchmark would measure a different program.
type mobTimer struct {
	inner netsim.MobilityModel
	epoch time.Time

	steps, stepNs     atomic.Int64 // serial Step calls and their time
	plans, planCPUNs  atomic.Int64 // PlanStep calls and their summed time
	commits, commitNs atomic.Int64 // CommitArrival calls and their time
	// planWallNs sums each tick's planning window, from its first PlanStep
	// start to its last PlanStep end. The window is folded in on the event
	// loop at the first NextDue after the tick's plan phase (Mobility re-arms
	// every stepped node), and at the end of every slice.
	planWallNs       atomic.Int64
	winStart, winEnd atomic.Int64
}

// wrapMobility returns a timed model forwarding exactly the optional
// interfaces m implements.
func wrapMobility(m netsim.MobilityModel) (netsim.MobilityModel, *mobTimer) {
	t := &mobTimer{inner: m, epoch: time.Now()}
	t.winStart.Store(math.MaxInt64)
	p, isPlanner := m.(netsim.Planner)
	q, isQuiescer := m.(netsim.Quiescer)
	switch {
	case isPlanner && isQuiescer:
		return struct {
			*mobTimer
			planHalf
			quiesceHalf
		}{t, planHalf{t, p}, quiesceHalf{t, q}}, t
	case isPlanner:
		return struct {
			*mobTimer
			planHalf
		}{t, planHalf{t, p}}, t
	case isQuiescer:
		return struct {
			*mobTimer
			quiesceHalf
		}{t, quiesceHalf{t, q}}, t
	default:
		return t, t
	}
}

func (t *mobTimer) now() int64 { return int64(time.Since(t.epoch)) }

// Init implements netsim.MobilityModel.
func (t *mobTimer) Init(n *netsim.Network, node *netsim.Node) { t.inner.Init(n, node) }

// Step implements netsim.MobilityModel.
func (t *mobTimer) Step(n *netsim.Network, node *netsim.Node, dt time.Duration) {
	start := t.now()
	t.inner.Step(n, node, dt)
	t.stepNs.Add(t.now() - start)
	t.steps.Add(1)
}

// flushWindow folds a finished planning window into planWallNs. It runs on
// the event loop, never during a plan phase.
func (t *mobTimer) flushWindow() {
	if end := t.winEnd.Swap(0); end != 0 {
		start := t.winStart.Swap(math.MaxInt64)
		t.planWallNs.Add(end - start)
	}
}

// serialNs is the event-loop time mobility spent inside the model: serial
// steps, arrival commits and the wall time of parallel planning.
func (t *mobTimer) serialNs() int64 {
	t.flushWindow()
	return t.stepNs.Load() + t.commitNs.Load() + t.planWallNs.Load()
}

// calls is the number of node steps the model planned, serially or not.
func (t *mobTimer) calls() int64 { return t.steps.Load() + t.plans.Load() }

type planHalf struct {
	t *mobTimer
	p netsim.Planner
}

// PlanStep implements netsim.Planner.
func (h planHalf) PlanStep(node *netsim.Node, now, dt time.Duration) (netsim.Position, bool, bool) {
	start := h.t.now()
	next, moved, arrived := h.p.PlanStep(node, now, dt)
	end := h.t.now()
	h.t.plans.Add(1)
	h.t.planCPUNs.Add(end - start)
	for {
		cur := h.t.winStart.Load()
		if start >= cur || h.t.winStart.CompareAndSwap(cur, start) {
			break
		}
	}
	for {
		cur := h.t.winEnd.Load()
		if end <= cur || h.t.winEnd.CompareAndSwap(cur, end) {
			break
		}
	}
	return next, moved, arrived
}

// CommitArrival implements netsim.Planner.
func (h planHalf) CommitArrival(n *netsim.Network, node *netsim.Node) {
	h.t.flushWindow()
	start := h.t.now()
	h.p.CommitArrival(n, node)
	h.t.commitNs.Add(h.t.now() - start)
	h.t.commits.Add(1)
}

type quiesceHalf struct {
	t *mobTimer
	q netsim.Quiescer
}

// NextDue implements netsim.Quiescer.
func (h quiesceHalf) NextDue(node *netsim.Node, now time.Duration) (time.Duration, bool) {
	h.t.flushWindow()
	return h.q.NextDue(node, now)
}
