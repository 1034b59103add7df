package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (a simulated slice or a kernel operation) share its op id; a root span has
// parent -1.
type span struct {
	name       uint16
	parent     int32
	op         int32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory; they are aggregated, and written out,
// only after the run. Spans may be recorded from several goroutines (the
// TCP transport delivers on reader goroutines), so the store is locked.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span            // guarded by mu
	names []string          // guarded by mu
	ids   map[string]uint16 // guarded by mu
	root  int32             // current root span, -1 between roots; guarded by mu
	op    int32             // op id of the current root; guarded by mu
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: make(map[string]uint16), root: -1, op: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nameLocked interns a span name. Caller holds t.mu.
func (t *tracer) nameLocked(name string) uint16 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// beginRoot opens the root span of one operation and makes it the parent of
// every span recorded until endRoot.
func (t *tracer) beginRoot(name string, op int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: t.nameLocked(name), parent: -1, op: op, start: start})
	t.root, t.op = i, op
	return i
}

// endRoot closes a root span.
func (t *tracer) endRoot(i int32) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = at
	if t.root == i {
		t.root, t.op = -1, -1
	}
}

// begin opens a child span. *open is the receive span in progress on the
// calling endpoint (-1 for none): a span opened while that receive belongs to
// the current operation is its child (a send made while handling), any
// other span a child of the current root. A receive span (recv) is itself
// installed as *open until endRecv.
func (t *tracer) begin(name string, open *int32, recv bool) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.root
	if !recv && *open >= 0 && t.spans[*open].op == t.op {
		parent = *open
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: t.nameLocked(name), parent: parent, op: t.op, start: start})
	if recv {
		*open = i
	}
	return i
}

// end closes a child span.
func (t *tracer) end(i int32) {
	at := t.now()
	t.mu.Lock()
	t.spans[i].end = at
	t.mu.Unlock()
}

// endRecv closes a receive span and clears it from its endpoint.
func (t *tracer) endRecv(i int32, open *int32) {
	at := t.now()
	t.mu.Lock()
	t.spans[i].end = at
	*open = -1
	t.mu.Unlock()
}

// spanStats aggregates closed spans by name: count, total duration and self
// time, the duration minus the part of it the span's children cover.
type spanStats struct {
	count map[string]int64
	total map[string]float64 // seconds
	self  map[string]float64 // seconds
}

// aggregate computes spanStats over every span that belongs to an
// operation (set-up spans outside any root are skipped).
func (t *tracer) aggregate() spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	st := spanStats{count: map[string]int64{}, total: map[string]float64{}, self: map[string]float64{}}
	for i, s := range t.spans {
		if s.op < 0 {
			continue
		}
		n := t.names[s.name]
		st.count[n]++
		st.total[n] += float64(s.end-s.start) / 1e9
		st.self[n] += float64(self[i]) / 1e9
	}
	return st
}

// selfTimes returns each span's self time in ns: its duration minus the
// union of its children's intervals, clipped to its own. Children may
// overlap each other (deliveries on another goroutine) or outlive the parent
// (a root closed by a callback inside a child); neither is counted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		self[i] = s.end - s.start
		if len(children[i]) == 0 {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, x := range iv {
			if k == 0 || x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// write dumps every span as tab-separated text: name, start and end in ns
// since the tracer started, parent index and op id.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, s.parent, s.op)
	}
	return bw.Flush()
}
