package netsim

import (
	"fmt"
	"testing"
	"time"
)

// TestWheelSchedulerMatchesHeapOracle is the engine-level differential the
// timing wheel ships under: the same seeded roaming crowd — mobility ticks,
// beacon bursts, loss RNG draws, neighbor churn — run on the wheel queue and
// on the binary-heap oracle must end bit-identical, at both worker counts.
func TestWheelSchedulerMatchesHeapOracle(t *testing.T) {
	const n = 400
	run := func(mk func(int64) *Sim, workers int) string {
		sim, net := buildCrowdOn(mk(42), 42, n, workers, 5*time.Second)
		sim.Run(60 * time.Second)
		return crowdFingerprint(net)
	}
	for _, workers := range []int{1, 4} {
		wheel := run(NewSim, workers)
		oracle := run(newSimHeap, workers)
		if wheel != oracle {
			t.Fatalf("workers=%d: wheel scheduler diverged from heap oracle (fingerprints differ)", workers)
		}
	}
}

// TestWheelFiringOrder pins the (time, sequence) contract directly: events
// across quantum boundaries, same-instant FIFO batches, zero delays and
// cancellations must fire in exactly the order the heap defines.
func TestWheelFiringOrder(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func(int64) *Sim
	}{{"wheel", NewSim}, {"heap", newSimHeap}} {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.mk(1)
			var got []int
			rec := func(id int) func() { return func() { got = append(got, id) } }
			// Same instant: scheduling order wins regardless of push order
			// relative to other deadlines.
			s.Schedule(50*time.Millisecond, rec(3))
			s.Schedule(10*time.Millisecond, rec(1))
			s.Schedule(50*time.Millisecond, rec(4))
			s.Schedule(10*time.Millisecond, rec(2))
			// Far future (beyond several wheel levels) and sub-quantum spacing.
			s.Schedule(90*time.Minute, rec(9))
			s.Schedule(50*time.Millisecond+time.Nanosecond, rec(5))
			cancel := s.Schedule(20*time.Millisecond, rec(99))
			cancel.Cancel()
			// Re-entrant zero-delay: fires within the same instant, after
			// everything already queued for it.
			s.Schedule(70*time.Millisecond, func() {
				got = append(got, 6)
				s.Schedule(0, rec(8))
				s.Schedule(0, func() { got = append(got, 10) })
			})
			s.Schedule(70*time.Millisecond, rec(7))
			s.RunUntilIdle(0)
			want := fmt.Sprint([]int{1, 2, 3, 4, 5, 6, 7, 8, 10, 9})
			if fmt.Sprint(got) != want {
				t.Fatalf("%s fired %v, want %v", eng.name, got, want)
			}
			if s.Pending() != 0 {
				t.Fatalf("pending %d after idle", s.Pending())
			}
		})
	}
}

// TestWheelOverflowHorizon schedules past the wheel's 4-level horizon
// (~52 virtual days) and across huge empty gaps: the overflow list and the
// empty-wheel jump must both deliver, in order, without spinning slots.
func TestWheelOverflowHorizon(t *testing.T) {
	s := NewSim(1)
	var got []string
	s.Schedule(80*24*time.Hour, func() { got = append(got, "far") })
	s.Schedule(80*24*time.Hour, func() { got = append(got, "far2") })
	s.Schedule(time.Second, func() { got = append(got, "near") })
	done := make(chan struct{})
	go func() {
		s.RunUntilIdle(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("wheel spun instead of jumping the empty gap")
	}
	if fmt.Sprint(got) != "[near far far2]" {
		t.Fatalf("fired %v", got)
	}
	if s.Now() != 80*24*time.Hour {
		t.Fatalf("clock %v", s.Now())
	}
}

// TestWheelRunBoundary checks Run's inclusive-until contract on the wheel:
// events at exactly until fire, later ones stay queued, and the clock lands
// on until.
func TestWheelRunBoundary(t *testing.T) {
	s := NewSim(1)
	fired := 0
	s.Schedule(time.Second, func() { fired++ })
	s.Schedule(time.Second+time.Nanosecond, func() { fired++ })
	s.Run(time.Second)
	if fired != 1 || s.Pending() != 1 || s.Now() != time.Second {
		t.Fatalf("fired=%d pending=%d now=%v", fired, s.Pending(), s.Now())
	}
	s.Run(2 * time.Second)
	if fired != 2 || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", fired, s.Pending())
	}
}

// TestWheelPendingCancelled mirrors Pending's documented semantics on both
// engines: cancelled events count until the queue discards them in passing.
func TestWheelPendingCancelled(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func(int64) *Sim
	}{{"wheel", NewSim}, {"heap", newSimHeap}} {
		t.Run(eng.name, func(t *testing.T) {
			s := eng.mk(1)
			e := s.Schedule(time.Second, func() {})
			s.Schedule(2*time.Second, func() {})
			e.Cancel()
			if s.Pending() != 2 {
				t.Fatalf("pending %d before discard", s.Pending())
			}
			s.RunUntilIdle(0)
			if s.Pending() != 0 {
				t.Fatalf("pending %d after idle", s.Pending())
			}
		})
	}
}

// TestWheelSortedDrainBurst drives one slot past 10k events on both engines
// and demands identical firing transcripts. Half of the slot's events are
// armed seconds ahead, so they reach level 0 by cascade; the other half are
// armed once the slot is in level-0 range, so they are placed directly.
// Deadlines inside the quantum are scrambled and repeat, so the sort and
// the sequence tie-break both matter. While the slot's run is only partly
// consumed, fired events arm more events into the same quantum (zero delay
// and sub-quantum delays, which go to the due-heap) and cancel pending ones
// in both the run and the due-heap.
func TestWheelSortedDrainBurst(t *testing.T) {
	const (
		quantum = time.Duration(1) << schedQuantumBits
		target  = 2000 * quantum // ~2.1 s: level 1 at t=0
		half    = 6000
	)
	run := func(mk func(int64) *Sim) (string, int) {
		s := mk(1)
		var log []byte
		var events []*Event
		next := 0
		var arm func(at time.Duration)
		arm = func(at time.Duration) {
			id := next
			next++
			events = append(events, s.Schedule(at-s.Now(), func() {
				log = fmt.Appendf(log, "%d@%d ", id, s.Now())
				if id%5 == 0 && next < 4*half {
					// Same-quantum pushes while the run is part-consumed.
					arm(s.Now())
					arm(s.Now() + time.Duration(id%97)*time.Microsecond)
				}
				if id%7 == 0 {
					events[(id*31+11)%len(events)].Cancel()
				}
			}))
		}
		offset := func(i int) time.Duration {
			return time.Duration((i * 7919) % int(quantum/64) * 64)
		}
		for i := 0; i < half; i++ {
			arm(target + offset(i))
		}
		s.Run(target - 100*time.Millisecond)
		for i := 0; i < half; i++ {
			arm(target + offset(i+half/2))
		}
		s.RunUntilIdle(0)
		return string(log), next
	}
	wheel, armed := run(NewSim)
	oracle, _ := run(newSimHeap)
	if armed < 2*half+1000 {
		t.Fatalf("only %d events armed; the burst did not form", armed)
	}
	if wheel != oracle {
		t.Fatal("wheel scheduler's sorted drain diverged from the heap oracle")
	}
}
