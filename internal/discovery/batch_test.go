package discovery

import (
	"testing"
	"time"

	"logmob/internal/netsim"
)

// TestBeaconBatchMatchesPerHost is the cadence differential: the same field
// of beaconing nodes driven per-host (each Start makes a batch of one with
// its own timer) and driven by one shared BeaconBatch must produce
// identical traffic — same Sent and Heard counters, same cached ads —
// because sharing only merges the re-arms, never the broadcast order.
func TestBeaconBatchMatchesPerHost(t *testing.T) {
	const n = 8
	const ivl = 3 * time.Second
	type world struct {
		r   *rig
		bcn []*Beacon
	}
	build := func(batched bool) *world {
		w := &world{r: newRig(t)}
		var g *BeaconBatch
		if batched {
			g = NewBeaconBatch(w.r.sim, ivl)
		}
		for i := 0; i < n; i++ {
			ep := w.r.addNode(t, string(rune('a'+i)), netsim.Position{X: float64(i)}, netsim.AdHoc)
			b := NewBeacon(ep, w.r.sim, ivl)
			b.Advertise(Ad{Service: "svc/" + ep.Addr()})
			if batched {
				g.Add(b)
			} else {
				b.Start()
			}
			w.bcn = append(w.bcn, b)
		}
		w.r.sim.Run(20 * time.Second)
		return w
	}
	perHost, batch := build(false), build(true)
	for i := range perHost.bcn {
		ph, ba := perHost.bcn[i], batch.bcn[i]
		if ph.Sent != ba.Sent || ph.Heard != ba.Heard {
			t.Errorf("beacon %d: per-host sent/heard %d/%d, batched %d/%d",
				i, ph.Sent, ph.Heard, ba.Sent, ba.Heard)
		}
		if ph.CacheSize() != ba.CacheSize() {
			t.Errorf("beacon %d: cache size %d vs %d", i, ph.CacheSize(), ba.CacheSize())
		}
	}
	if batch.bcn[0].batch.Len() != n {
		t.Errorf("batch has %d members, want %d", batch.bcn[0].batch.Len(), n)
	}
}

// TestBeaconBatchStopStart pins member stop/rejoin semantics: a stopped
// member is skipped by the shared tick (Sent frozen), and Start broadcasts
// immediately then rides the next batch tick.
func TestBeaconBatchStopStart(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	g := NewBeaconBatch(r.sim, ivl)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	epB := r.addNode(t, "b", netsim.Position{X: 1}, netsim.AdHoc)
	a, b := NewBeacon(epA, r.sim, ivl), NewBeacon(epB, r.sim, ivl)
	a.Advertise(Ad{Service: "svc/a"})
	b.Advertise(Ad{Service: "svc/b"})
	g.Add(a)
	g.Add(b)

	r.sim.Run(7 * time.Second) // ticks at 0, 3, 6
	if a.Sent != 3 || b.Sent != 3 {
		t.Fatalf("sent a=%d b=%d, want 3/3", a.Sent, b.Sent)
	}
	a.Stop()
	r.sim.Run(13 * time.Second) // ticks at 9, 12 skip a
	if a.Sent != 3 || b.Sent != 5 {
		t.Fatalf("after stop: sent a=%d b=%d, want 3/5", a.Sent, b.Sent)
	}
	a.Start() // immediate broadcast, then back on the shared cadence
	if a.Sent != 4 {
		t.Fatalf("restart did not broadcast immediately: sent=%d", a.Sent)
	}
	r.sim.Run(16 * time.Second) // tick at 15
	if a.Sent != 5 || b.Sent != 6 {
		t.Fatalf("after restart: sent a=%d b=%d, want 5/6", a.Sent, b.Sent)
	}
}

// TestBeaconBatchIntervalMismatch pins the wiring guard: a beacon built
// with a different interval cannot join the batch.
func TestBeaconBatchIntervalMismatch(t *testing.T) {
	r := newRig(t)
	g := NewBeaconBatch(r.sim, 3*time.Second)
	ep := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	b := NewBeacon(ep, r.sim, 5*time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a beacon with a mismatched interval")
		}
	}()
	g.Add(b)
}

// TestBeaconBatchRestartAfterStop pins the idle-batch re-arm: after the
// whole batch stops, a member that starts again broadcasts at once and
// then keeps beaconing every interval from the restart, instead of going
// silent because nothing re-armed the shared tick.
func TestBeaconBatchRestartAfterStop(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	g := NewBeaconBatch(r.sim, ivl)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	r.addNode(t, "b", netsim.Position{X: 1}, netsim.AdHoc)
	a := NewBeacon(epA, r.sim, ivl)
	a.Advertise(Ad{Service: "svc/a"})
	g.Add(a)

	r.sim.Run(7 * time.Second) // ticks at 0, 3, 6
	g.Stop()
	a.Start()                   // immediate broadcast at 7
	r.sim.Run(20 * time.Second) // ticks at 10, 13, 16, 19
	if a.Sent != 8 {
		t.Fatalf("sent %d beacons by 20s, want 8 (3 before the stop, 5 after the restart)", a.Sent)
	}
	if r.sim.Pending() == 0 {
		t.Fatal("restarted batch left no tick armed")
	}
}

// TestBeaconStopLeavesNoTimer pins that a beacon started on its own stops
// for good: no cadence timer stays pending, so the simulator can go idle.
func TestBeaconStopLeavesNoTimer(t *testing.T) {
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	r.addNode(t, "b", netsim.Position{X: 1}, netsim.AdHoc)
	a := NewBeacon(epA, r.sim, time.Second)
	a.Advertise(Ad{Service: "svc/a"})
	a.Start()
	r.sim.Run(5 * time.Second)
	a.Stop()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("RunUntilIdle never returned after Stop: %v", p)
		}
	}()
	r.sim.RunUntilIdle(1000)
	if a.Sent != 6 {
		t.Errorf("sent %d beacons, want 6 (at 0..5s)", a.Sent)
	}
}

// TestBeaconRestartTiming pins a lone beacon's restart cadence: Start after
// Stop broadcasts immediately, then at restart + k·interval.
func TestBeaconRestartTiming(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	epA := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	r.addNode(t, "b", netsim.Position{X: 1}, netsim.AdHoc)
	a := NewBeacon(epA, r.sim, ivl)
	a.Advertise(Ad{Service: "svc/a"})
	a.Start()
	r.sim.Run(4 * time.Second) // beacons at 0, 3
	a.Stop()
	restart := 5500 * time.Millisecond
	r.sim.Run(restart)
	a.Start()
	if a.Sent != 3 {
		t.Fatalf("restart did not broadcast immediately: sent=%d, want 3", a.Sent)
	}
	for k := 1; k <= 3; k++ {
		due := restart + time.Duration(k)*ivl
		r.sim.Run(due - time.Nanosecond)
		if want := int64(2 + k); a.Sent != want {
			t.Fatalf("before %v: sent=%d, want %d", due, a.Sent, want)
		}
		r.sim.Run(due)
		if want := int64(3 + k); a.Sent != want {
			t.Fatalf("at %v: sent=%d, want %d", due, a.Sent, want)
		}
	}
}

// TestBeaconBatchAddStartedBeacon pins the ownership guard: a beacon
// started on its own already owns a batch of one, so adding it to a
// shared batch panics.
func TestBeaconBatchAddStartedBeacon(t *testing.T) {
	const ivl = 3 * time.Second
	r := newRig(t)
	g := NewBeaconBatch(r.sim, ivl)
	ep := r.addNode(t, "a", netsim.Position{}, netsim.AdHoc)
	b := NewBeacon(ep, r.sim, ivl)
	b.Start()
	defer func() {
		if p := recover(); p != "discovery: beacon already owned by another batch" {
			t.Fatalf("Add of a started beacon: recovered %v, want the ownership guard", p)
		}
	}()
	g.Add(b)
}
