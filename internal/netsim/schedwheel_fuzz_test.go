package netsim

import (
	"fmt"
	"testing"
	"time"
)

// FuzzTimingWheelScheduler drives random After/cancel/advance scripts
// against two simulators at once — the timing wheel and the binary-heap
// oracle — and demands the full firing transcript (event id at virtual
// time) and final clock/pending state match exactly. Delays are drawn so
// scripts cross quantum boundaries, pile events onto one instant (FIFO
// within a deadline), re-arm from inside callbacks (the beacon cadence
// shape), and reach past level-0 into the coarser wheels.
func FuzzTimingWheelScheduler(f *testing.F) {
	// Beacon cadence: periodic re-arm at one interval, then advance.
	f.Add([]byte{0, 30, 0, 30, 0, 30, 3, 3, 3, 3})
	// Same-instant pile-up plus cancels.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 2, 5, 3, 3})
	// Far-future arms that must cascade down through the levels.
	f.Add([]byte{0, 200, 0, 250, 0, 1, 4, 4, 4, 3, 3, 3})
	// Sorted drain: a slot's run consumed only partly by Steps while
	// zero-delay arms land in the same quantum's due-heap and cancels hit
	// both the run and the due-heap, then a cascaded slot.
	f.Add(burstSeed())

	f.Fuzz(func(t *testing.T, data []byte) {
		type world struct {
			sim     *Sim
			log     []string
			cancels []func()
		}
		mk := func(build func(int64) *Sim) *world {
			return &world{sim: build(9)}
		}
		worlds := [2]*world{mk(NewSim), mk(newSimHeap)}

		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// Delay table mixes sub-quantum, multi-slot, level-1+ and zero
		// delays; index by byte so both worlds see identical values.
		delay := func(b byte) time.Duration {
			switch b % 5 {
			case 0:
				return 0
			case 1:
				return time.Duration(b) * 37 * time.Microsecond // inside one slot
			case 2:
				return time.Duration(b) * 11 * time.Millisecond // a few slots out
			case 3:
				return time.Duration(b) * 3 * time.Second // level 1
			default:
				return time.Duration(b) * 17 * time.Minute // level 2+
			}
		}
		id := 0
		arm := func(d time.Duration, rearm byte) {
			eid := id
			id++
			for _, w := range worlds {
				w := w
				left := 8 // bound re-arm chains so drains terminate
				var fn func()
				fn = func() {
					w.log = append(w.log, fmt.Sprintf("%d@%v", eid, w.sim.Now()))
					if rearm%4 == 0 && left > 0 { // periodic re-arm from inside the callback
						left--
						w.cancels = append(w.cancels, w.sim.After(d+time.Duration(rearm+1)*time.Millisecond, fn))
					}
				}
				w.cancels = append(w.cancels, w.sim.After(d, fn))
			}
		}
		steps := 0
		for pos < len(data) && steps < 200 {
			steps++
			switch op := next(); op % 5 {
			case 0: // After
				arm(delay(next()), next())
			case 1: // cancel an outstanding timer
				if n := len(worlds[0].cancels); n > 0 {
					i := int(next()) % n
					for _, w := range worlds {
						w.cancels[i]()
					}
				}
			case 2: // Step both once
				for _, w := range worlds {
					w.sim.Step()
				}
			case 3: // Run a bounded window
				d := delay(next())
				for _, w := range worlds {
					w.sim.Run(w.sim.Now() + d)
				}
			case 4: // drain everything pending
				for _, w := range worlds {
					w.sim.RunUntilIdle(2_000_000)
				}
			}
			if worlds[0].sim.Now() != worlds[1].sim.Now() {
				t.Fatalf("clocks diverged: wheel %v heap %v", worlds[0].sim.Now(), worlds[1].sim.Now())
			}
		}
		// Final drain so every surviving timer's order is compared too. The
		// re-arm chains are periodic, so cancel them first to terminate.
		for _, w := range worlds {
			for _, c := range w.cancels {
				c()
			}
			w.sim.RunUntilIdle(2_000_000)
		}
		if got, want := fmt.Sprint(worlds[0].log), fmt.Sprint(worlds[1].log); got != want {
			t.Fatalf("firing transcripts diverged:\nwheel: %s\nheap:  %s", got, want)
		}
		if worlds[0].sim.Pending() != worlds[1].sim.Pending() {
			t.Fatalf("pending diverged: wheel %d heap %d", worlds[0].sim.Pending(), worlds[1].sim.Pending())
		}
	})
}

// burstSeed builds the sorted-drain seed script for FuzzTimingWheelScheduler
// (ops: 0 arm, 1 cancel, 2 Step, 3 Run, 4 drain; see the delay table).
func burstSeed() []byte {
	var s []byte
	for _, b := range []byte{252, 252, 247, 252} {
		s = append(s, 0, b, 1) // 2.7 s out: parked on level 1, cascades later
	}
	for _, b := range []byte{1, 1, 6, 11, 11, 16, 21} {
		s = append(s, 0, b, 1) // inside the first quantum, equal pairs included
	}
	s = append(s, 2, 2) // fire the two earliest: the run is part-consumed
	for i := byte(0); i < 4; i++ {
		s = append(s, 0, 0, 1, 1, 3*i+2, 2) // zero-delay arm, cancel, Step
	}
	return append(s, 3, 252, 4) // Run across the cascaded slot, then drain
}
