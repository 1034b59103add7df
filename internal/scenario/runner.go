package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logmob/internal/metrics"
	"logmob/internal/netsim"
)

// defaultWorkers is the tick worker pool size worlds start with when their
// Spec does not set Workers explicitly. 1 (serial) by default; the
// experiments CLI raises it. Atomic so a harness can flip it around runs
// that themselves execute replicates in parallel.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// SetDefaultWorkers sets the tick worker pool size newly built worlds
// inherit: 1 runs netsim's tick on the event-loop goroutine, values above 1
// shard its bulk phases, and 0 or negative selects GOMAXPROCS. Per-seed
// results are bit-identical at any setting; only wall-clock changes.
func SetDefaultWorkers(w int) {
	if w <= 0 {
		w = netsim.AutoWorkers()
	}
	defaultWorkers.Store(int32(w))
}

// DefaultWorkers returns the worker count newly built worlds inherit.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// RunFunc produces one replicate's result for a seed. Each invocation must
// build its own world (one Sim per seed), so replicates are independent and
// safe to run in parallel.
type RunFunc func(seed int64) *Result

// Runner executes a run function across many seeds and aggregates the
// replicate tables. Per-seed determinism is preserved: a seed's result is
// identical whether it runs serially or in parallel.
type Runner struct {
	// Seeds are the replicate seeds, in presentation order.
	Seeds []int64
	// Parallel bounds concurrent replicates; <=1 runs serially.
	Parallel int
}

// Seeds returns n consecutive seeds starting at base (empty for n <= 0).
func Seeds(base int64, n int) []int64 {
	if n < 0 {
		n = 0
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Replicate is one seed's result.
type Replicate struct {
	Seed   int64
	Result *Result
}

// MultiResult is a replicated run: per-seed results plus the aggregate.
type MultiResult struct {
	ID    string
	Title string
	// Replicates are the per-seed results, in Seeds order.
	Replicates []Replicate
	// Aggregate holds the replicate tables combined cell-wise into
	// mean±stddev summaries. It is nil for a single replicate.
	Aggregate *Result
}

// Run executes fn once per seed (Parallel at a time) and aggregates the
// results.
func (r Runner) Run(fn RunFunc) *MultiResult {
	reps := make([]Replicate, len(r.Seeds))
	if r.Parallel > 1 && len(r.Seeds) > 1 {
		sem := make(chan struct{}, r.Parallel)
		var wg sync.WaitGroup
		for i, seed := range r.Seeds {
			wg.Add(1)
			go func(i int, seed int64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				reps[i] = Replicate{Seed: seed, Result: fn(seed)}
			}(i, seed)
		}
		wg.Wait()
	} else {
		for i, seed := range r.Seeds {
			reps[i] = Replicate{Seed: seed, Result: fn(seed)}
		}
	}
	out := &MultiResult{Replicates: reps}
	if len(reps) > 0 && reps[0].Result != nil {
		out.ID = reps[0].Result.ID
		out.Title = reps[0].Result.Title
	}
	if len(reps) > 1 {
		out.Aggregate = aggregate(reps)
	}
	return out
}

// aggregate combines the replicates' tables position-wise. Tables must have
// the same shape across seeds (deterministic experiments do); a shape
// mismatch is reported in the aggregate's notes instead of a table.
func aggregate(reps []Replicate) *Result {
	first := reps[0].Result
	agg := &Result{
		ID:    first.ID,
		Title: fmt.Sprintf("%s (mean±stddev over %d seeds)", first.Title, len(reps)),
		Notes: first.Notes,
	}
	for ti := range first.Tables {
		tables := make([]*metrics.Table, 0, len(reps))
		for _, rep := range reps {
			if ti < len(rep.Result.Tables) {
				tables = append(tables, rep.Result.Tables[ti])
			}
		}
		combined, err := metrics.AggregateTables(tables)
		if err != nil {
			agg.Notes = append(agg.Notes,
				fmt.Sprintf("table %d not aggregated: %v", ti+1, err))
			continue
		}
		agg.Tables = append(agg.Tables, combined)
	}
	return agg
}
