package netsim

import (
	"cmp"
	"container/heap"
	"math/bits"
	"slices"
)

// This file is the simulator's event queue: a hashed hierarchical timing
// wheel. The original binary heap (heapQueue below) pays O(log n) per
// schedule, and at a million beaconing hosts the heap itself becomes the
// tick bottleneck — every re-arm sifts through a seven-figure queue. The
// wheel makes scheduling O(1): an event hashes to a slot by its deadline,
// whole slots are drained as virtual time reaches them, and far-future
// events cascade down from coarser levels exactly once.
//
// Ordering contract (what every golden depends on): events fire in exactly
// (at, seq) order — earliest deadline first, insertion order within one
// instant — identical to the heap. The wheel guarantees it structurally:
// slots are drained in slot order, and a drained slot is sorted once by
// (at, seq) into a run consumed front to back. An event scheduled into the
// already-reached quantum cannot join the sorted run, so it goes into a
// small (at, seq) due-heap instead; every pop takes the smaller of the two
// heads. The run and the due-heap therefore merge into one (at, seq)
// sequence, and a quantum with no such late pushes never touches the heap.
// The heap stays in the tree as the differential oracle (NewSimHeap);
// TestWheelSchedulerMatchesHeapOracle, TestWheelSortedDrainBurst and
// FuzzTimingWheelScheduler hold the two engines bit-identical.

// eventQueue is the simulator's pending-event store. Implementations must
// yield events in (at, seq) order and tolerate lazy cancellation (cancelled
// events are discarded, not fired).
type eventQueue interface {
	push(e *Event)
	// peek returns the earliest live event without removing it, discarding
	// cancelled events as it finds them; nil when the queue is empty.
	peek() *Event
	// pop removes and returns the earliest live event, or nil when empty.
	pop() *Event
	// len counts pending events, including cancelled ones not yet discarded.
	len() int
}

// heapQueue is the original binary-heap queue, kept verbatim behind the
// eventQueue interface as the wheel's differential oracle.
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

// Wheel geometry. Level 0 slots are schedQuantum (2^20ns ~ 1.05ms) wide;
// each higher level's slots are 256x coarser, so four levels cover
// 2^52ns (~52 days) of virtual time ahead of the clock. Events beyond the
// horizon wait in an overflow list and are re-placed when the top level
// turns over.
const (
	schedQuantumBits = 20
	schedLevelBits   = 8
	schedSlots       = 1 << schedLevelBits
	schedSlotMask    = schedSlots - 1
	schedLevels      = 4
)

// schedLevel is one wheel level: 256 buckets plus an occupancy bitmap so
// empty stretches are skipped word-at-a-time instead of slot-at-a-time.
type schedLevel struct {
	buckets [schedSlots][]*Event
	occ     [schedSlots / 64]uint64
}

func (l *schedLevel) put(idx int, e *Event) {
	l.buckets[idx] = append(l.buckets[idx], e)
	l.occ[idx>>6] |= 1 << (uint(idx) & 63)
}

// nextOccupied returns the smallest occupied bucket index >= from, or -1.
func (l *schedLevel) nextOccupied(from int) int {
	w := from >> 6
	word := l.occ[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(l.occ) {
			return -1
		}
		word = l.occ[w]
	}
}

// take empties bucket idx and returns its events. The bucket keeps the
// slice's backing array: the caller hands it back through release once it
// has re-placed the events.
func (l *schedLevel) take(idx int) []*Event {
	b := l.buckets[idx]
	l.buckets[idx] = nil
	l.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	return b
}

// release returns a taken bucket's storage, cleared, to bucket idx so the
// next revolution that fills it does not regrow it.
func (l *schedLevel) release(idx int, b []*Event) {
	clear(b)
	l.buckets[idx] = b[:0]
}

// wheelQueue is the hashed hierarchical timing wheel.
type wheelQueue struct {
	levels [schedLevels]schedLevel
	// overflow holds events beyond the top level's horizon, re-placed when
	// the top level turns over (or when the wheel is otherwise empty).
	overflow []*Event
	// run is the last drained slot's events sorted by (at, seq); run[runPos:]
	// are still pending. The wheel's quantum is coarser than event
	// deadlines, so a reached slot resolves its exact order by one sort.
	run    []*Event
	runPos int
	// due holds the events pushed into an already-reached quantum, ordered
	// by (at, seq). They compete with the run's head on every pop.
	due eventHeap
	// cur is the next level-0 slot to drain: every event in slots < cur has
	// been moved into run or due (or fired), every pending event in the
	// wheel is at a slot >= cur.
	cur int64
	// count tracks all pending events (buckets + overflow + run + due),
	// including cancelled ones not yet discarded; inWheel counts buckets
	// only.
	count   int
	inWheel int
}

func newWheelQueue() *wheelQueue { return &wheelQueue{} }

func (w *wheelQueue) len() int { return w.count }

func (w *wheelQueue) push(e *Event) {
	w.count++
	slot := int64(e.at) >> schedQuantumBits
	if slot < w.cur {
		// The clock is already inside (or past) this event's quantum: it
		// competes with the drained slot's run on (at, seq) directly.
		heap.Push(&w.due, e)
		return
	}
	w.place(e, slot)
}

// place files an event at the finest level whose window covers its slot.
// Level l holds events whose slot, in level-l units, is within 256 of the
// clock's — so a bucket always maps to exactly one absolute slot and never
// mixes revolutions.
func (w *wheelQueue) place(e *Event, slot int64) {
	for l := 0; l < schedLevels; l++ {
		shift := uint(schedLevelBits * l)
		if (slot>>shift)-(w.cur>>shift) < schedSlots {
			w.levels[l].put(int((slot>>shift)&schedSlotMask), e)
			w.inWheel++
			return
		}
	}
	w.overflow = append(w.overflow, e)
}

func (w *wheelQueue) peek() *Event {
	for {
		for w.runPos < len(w.run) && w.run[w.runPos].canceled {
			w.run[w.runPos] = nil
			w.runPos++
			w.count--
		}
		for len(w.due) > 0 && w.due[0].canceled {
			heap.Pop(&w.due)
			w.count--
		}
		if w.runPos < len(w.run) {
			r := w.run[w.runPos]
			if len(w.due) > 0 && eventCmp(w.due[0], r) < 0 {
				return w.due[0]
			}
			return r
		}
		if len(w.due) > 0 {
			return w.due[0]
		}
		if w.count == 0 {
			return nil
		}
		w.advance()
	}
}

func (w *wheelQueue) pop() *Event {
	e := w.peek()
	if e == nil {
		return nil
	}
	if w.runPos < len(w.run) && w.run[w.runPos] == e {
		w.run[w.runPos] = nil
		w.runPos++
	} else {
		heap.Pop(&w.due)
	}
	w.count--
	return e
}

// advance moves the clock position forward until at least one slot has been
// drained into the run, cascading coarser levels down at their boundaries
// and skipping empty stretches by bitmap. Callers guarantee count > 0 and
// that the run and the due-heap are both exhausted.
func (w *wheelQueue) advance() {
	for {
		if w.inWheel == 0 {
			// Only overflow events remain: jump straight to the horizon
			// boundary that re-admits the earliest of them instead of
			// turning the empty wheel billions of slots.
			min := int64(w.overflow[0].at) >> schedQuantumBits
			for _, e := range w.overflow[1:] {
				if s := int64(e.at) >> schedQuantumBits; s < min {
					min = s
				}
			}
			const topMask = 1<<(schedLevelBits*(schedLevels-1)) - 1
			if jump := min &^ topMask; jump > w.cur {
				w.cur = jump
			}
		}
		if w.cur&schedSlotMask == 0 {
			w.cascade()
		}
		if j := w.levels[0].nextOccupied(int(w.cur & schedSlotMask)); j >= 0 {
			w.drainSlot(j)
			w.cur = w.cur&^schedSlotMask + int64(j) + 1
			return
		}
		w.cur = w.cur&^schedSlotMask + schedSlots
	}
}

// cascade pulls down, for every level whose block boundary the clock sits
// on, the bucket covering the block just entered — its events re-place at a
// finer level (an event is pulled down at most schedLevels-1 times, so the
// amortized cost per event is O(1)). At the top level's boundary, overflow
// events that now fit the horizon re-enter the wheel.
func (w *wheelQueue) cascade() {
	for l := schedLevels - 1; l >= 1; l-- {
		shift := uint(schedLevelBits * l)
		if w.cur&(1<<shift-1) != 0 {
			continue
		}
		idx := int((w.cur >> shift) & schedSlotMask)
		pulled := w.levels[l].take(idx)
		w.inWheel -= len(pulled)
		for _, e := range pulled {
			// Every pulled event lies in the level-l block just entered, so
			// it fits level l-1 or finer and never lands back in idx.
			w.place(e, int64(e.at)>>schedQuantumBits)
		}
		w.levels[l].release(idx, pulled)
	}
	if len(w.overflow) > 0 && w.cur&(1<<(schedLevelBits*(schedLevels-1))-1) == 0 {
		pending := w.overflow
		w.overflow = nil
		for _, e := range pending {
			w.place(e, int64(e.at)>>schedQuantumBits)
		}
	}
}

// drainSlot copies level-0 bucket idx into the run and sorts it. The run
// and the bucket each keep their own backing array warm: the bucket may
// refill for a slot 256 quanta on while the run is still being consumed.
func (w *wheelQueue) drainSlot(idx int) {
	l := &w.levels[0]
	b := l.take(idx)
	w.inWheel -= len(b)
	w.run, w.runPos = append(w.run[:0], b...), 0
	l.release(idx, b)
	slices.SortFunc(w.run, eventCmp)
}

// eventCmp is the (at, seq) order every engine fires in.
func eventCmp(a, b *Event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}
