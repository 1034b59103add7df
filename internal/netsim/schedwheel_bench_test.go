package netsim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerArm measures the timing wheel against the heap oracle
// on the beacon-shaped load the wheel exists for: n self-re-arming timers
// on a shared 30s cadence with staggered phases, so every RunFor window
// fires n callbacks and pushes n re-arms. The heap pays O(log n) per arm
// and per pop; the wheel pays O(1) per arm and amortised-constant
// cascades. The n=1000000 rows are the megacity scale (skipped in -short).
// The root package's BenchmarkSchedulerArm runs the wheel rows alone.
func BenchmarkSchedulerArm(b *testing.B) {
	const ivl = 30 * time.Second
	engines := []struct {
		name string
		mk   func(int64) *Sim
	}{
		{"heap", newSimHeap},
		{"wheel", NewSim},
	}
	for _, eng := range engines {
		for _, n := range []int{1000, 100000, 1000000} {
			b.Run(fmt.Sprintf("%s/n%d", eng.name, n), func(b *testing.B) {
				if n >= 1000000 && testing.Short() {
					b.Skip("1M-timer benchmark in -short mode")
				}
				s := eng.mk(1)
				fired := 0
				var rearm func()
				rearm = func() {
					fired++
					s.After(ivl, rearm)
				}
				for i := 0; i < n; i++ {
					// Stagger initial phases so firings spread across the
					// interval instead of landing on one instant.
					s.After(time.Duration(i%1000)*ivl/1000, rearm)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.RunFor(ivl)
				}
				b.StopTimer()
				if fired == 0 {
					b.Fatal("no timers fired")
				}
			})
		}
	}
}
