package netsim

import "container/heap"

// This file holds the simulator's differential oracles: the original
// implementations that production code replaced with faster structures,
// kept so tests can require the two to agree exactly.

// --- event-queue oracle ---

// heapQueue is the original binary-heap event queue, kept verbatim behind
// the eventQueue interface as the timing wheel's differential oracle.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(e *Event) { heap.Push(&q.h, e) }

func (q *heapQueue) peek() *Event {
	for q.h.Len() > 0 {
		if !q.h[0].canceled {
			return q.h[0]
		}
		heap.Pop(&q.h)
	}
	return nil
}

func (q *heapQueue) pop() *Event {
	if e := q.peek(); e != nil {
		heap.Pop(&q.h)
		return e
	}
	return nil
}

func (q *heapQueue) len() int { return q.h.Len() }

// newSimHeap returns a simulator running on heapQueue. A given seed
// produces bit-identical runs on it and on NewSim's timing wheel.
func newSimHeap(seed int64) *Sim {
	s := NewSim(seed)
	s.queue = &heapQueue{}
	return s
}

// --- linear-scan oracles ---
//
// The pre-grid implementations, kept verbatim as correctness oracles: the
// property tests in grid_test.go, wheel_test.go, linkstate_test.go and
// parallel_test.go require the grid-backed queries to agree with them
// exactly (same sets, same order) on randomized topologies, and the
// benchmarks in grid_bench_test.go measure the grid against them.

// connectedLinear is the original Connected.
func (n *Network) connectedLinear(a, b string) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil || !na.Up || !nb.Up || a == b {
		return false
	}
	if n.cuts[linkKey(a, b)] {
		return false
	}
	if len(n.parts) > 0 && n.partitionedPair(na, nb) {
		return false
	}
	if na.Class.Infrastructure && nb.Class.Infrastructure {
		return true
	}
	if na.Class.Infrastructure != nb.Class.Infrastructure {
		return true
	}
	d := na.Pos().Dist(nb.Pos())
	return d <= na.EffectiveRange() && d <= nb.EffectiveRange()
}

// neighborsLinear is the original full-scan Neighbors.
func (n *Network) neighborsLinear(id string) []string {
	var out []string
	for _, other := range n.order {
		if other != id && n.connectedLinear(id, other) {
			out = append(out, other)
		}
	}
	return out
}

// routeLinear is the original BFS over the full node list.
func (n *Network) routeLinear(a, b string) []string {
	if a == b {
		return []string{a}
	}
	if n.nodes[a] == nil || n.nodes[b] == nil {
		return nil
	}
	prev := map[string]string{a: a}
	queue := []string{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range n.order {
			if _, seen := prev[next]; seen || !n.connectedLinear(cur, next) {
				continue
			}
			prev[next] = cur
			if next == b {
				var path []string
				for at := b; ; at = prev[at] {
					path = append([]string{at}, path...)
					if at == a {
						return path
					}
				}
			}
			queue = append(queue, next)
		}
	}
	return nil
}
