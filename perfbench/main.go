// Command perfbench is logmob's benchmark. It runs one seeded workload for
// a fixed time, checks every output, and prints its metrics, the last line
// being one JSON object:
//
//	perfbench --workload city|metro|kernel|wire --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// decorator installed. With --trace 1 it alternates untraced and traced
// repetitions and reports the per-layer metrics; the traced repetitions time
// each layer from outside, through endpoint and mobility decorators, and the
// spans are written to .bench_build/trace-<workload>.tsv. README.md lists
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the seed the committed crowd fingerprints belong to.
const defaultSeed = 1

// workload is one benchmark workload: rep builds everything from seed, runs
// the timed phase once and checks its outputs. A nil tracer means no
// decorator is installed.
type workload interface {
	rep(seed int64, tr *tracer) (*repResult, error)
}

var workloads = map[string]func() workload{
	"city":   func() workload { s := city; return &s },
	"metro":  func() workload { s := metro; return &s },
	"kernel": func() workload { return &kernelWL{} },
	"wire":   func() workload { return &wireWL{} },
}

// metric names one reported number, as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The end-to-end times are CPU times, user plus system over all threads:
// on a shared virtual machine, wall time also counts the periods the
// hypervisor runs someone else (steal), which made wall-clock medians drift
// by up to a quarter between runs of identical code. The wall time is
// reported per layer as bench.run_wall_s.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"msgs_per_cpu_s", "msg/s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

var perLayer = []metric{
	{"bench.run_wall_s", "s", "lower"},
	{"netsim.engine_self_s", "s", "lower"},
	{"netsim.send_s", "s", "lower"},
	{"netsim.send_calls", "count", "lower"},
	{"netsim.broadcast_calls", "count", "lower"},
	{"netsim.fanout", "ratio", "higher"},
	{"netsim.mobility.plan_calls", "count", "lower"},
	{"netsim.mobility.plan_cpu_s", "s", "lower"},
	{"netsim.mobility.commit_s", "s", "lower"},
	{"netsim.mobility.active_ratio", "ratio", "lower"},
	{"netsim.queue_depth_p50", "events", "lower"},
	{"netsim.queue_depth_max", "events", "lower"},
	{"netsim.msgs_sent", "count", "lower"},
	{"netsim.msgs_recv", "count", "higher"},
	{"netsim.msgs_lost", "count", "lower"},
	{"netsim.bytes_sent", "bytes", "lower"},
	{"netsim.topology_epochs", "count", "lower"},
	{"transport.recv_s", "s", "lower"},
	{"transport.recv_frames.kernel", "count", "higher"},
	{"transport.recv_frames.beacon", "count", "higher"},
	{"transport.tcp.send_s", "s", "lower"},
	{"transport.tcp.frames", "count", "lower"},
	{"transport.tcp.bytes", "bytes", "lower"},
	{"transport.tcp.handoff_s", "s", "lower"},
	{"discovery.ingest_s", "s", "lower"},
	{"discovery.ingest_ns_per_frame", "ns", "lower"},
	{"discovery.beacons_sent", "count", "lower"},
	{"discovery.beacons_heard", "count", "higher"},
	{"core.recv_s.call", "s", "lower"},
	{"core.recv_s.eval", "s", "lower"},
	{"core.recv_s.fetch", "s", "lower"},
	{"core.recv_s.agent", "s", "lower"},
	{"core.recv_s.reply", "s", "lower"},
	{"core.timeouts", "count", "lower"},
	{"core.verify_failures", "count", "lower"},
	{"core.ops_per_cpu_s", "op/s", "higher"},
	{"core.fail_ratio", "ratio", "lower"},
	{"core.cs_p50_us", "us", "lower"},
	{"core.cs_p90_us", "us", "lower"},
	{"core.rev_p50_us", "us", "lower"},
	{"core.rev_p90_us", "us", "lower"},
	{"core.cod_p50_us", "us", "lower"},
	{"core.cod_p90_us", "us", "lower"},
	{"core.ma_p50_us", "us", "lower"},
	{"core.ma_p90_us", "us", "lower"},
	{"agent.migrations", "count", "lower"},
	{"agent.migration_failures", "count", "lower"},
	{"agent.completed", "count", "higher"},
	{"lmu.pack_ns.small", "ns", "lower"},
	{"lmu.pack_ns.large", "ns", "lower"},
	{"lmu.unpack_ns.small", "ns", "lower"},
	{"lmu.unpack_ns.large", "ns", "lower"},
	{"lmu.est_s", "s", "lower"},
	{"security.verify_ns.small", "ns", "lower"},
	{"security.verify_ns.large", "ns", "lower"},
	{"security.est_s", "s", "lower"},
	{"vm.decode_ns", "ns", "lower"},
	{"vm.run_ns.small", "ns", "lower"},
	{"vm.run_ns.large", "ns", "lower"},
	{"vm.est_s", "s", "lower"},
	{"registry.put_ns.small", "ns", "lower"},
	{"registry.put_ns.large", "ns", "lower"},
	{"registry.est_s", "s", "lower"},
	{"wire.frame_ns.small", "ns", "lower"},
	{"wire.frame_ns.large", "ns", "lower"},
	{"wire.est_s", "s", "lower"},
	{"scenario.compile_s", "s", "lower"},
	{"scenario.workload_start_s", "s", "lower"},
	{"go.allocs_per_msg", "allocs", "lower"},
	{"go.allocs_per_op", "allocs", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func main() {
	name := flag.String("workload", "", "city, metro, kernel or wire")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to keep repeating the workload")
	traceOn := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || *traceOn < 0 || *traceOn > 1 {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(mk(), *name, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	js, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
	if !out.result.Correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type output struct {
	result result
	lines  []string // human-readable report, sample counts included
}

// minReps is the fewest untraced repetitions a run reports medians over.
const minReps = 3

// run repeats the workload until d has passed (and at least minReps times,
// or once per mode when traced), checks every repetition, and reports.
func run(wl workload, name string, seed int64, d time.Duration, traced bool) (*output, error) {
	deadline := time.Now().Add(d)
	var plain, tracedReps []*repResult
	var lastTracer *tracer
	for {
		r, err := wl.rep(seed, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		if traced {
			tr := newTracer()
			r, err := wl.rep(seed, tr)
			if err != nil {
				return nil, err
			}
			tracedReps = append(tracedReps, r)
			lastTracer = tr
		}
		if time.Now().After(deadline) && (traced || len(plain) >= minReps) {
			break
		}
	}

	out := &output{result: result{Correct: true, Metrics: map[string]value{}}}
	check := func(err error) {
		if err != nil {
			out.result.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
	all := append(append([]*repResult(nil), plain...), tracedReps...)
	for _, r := range all {
		out.result.Attempted += r.attempted
		out.result.Failed += r.failed
		if r.failed > 0 {
			check(fmt.Errorf("%d of %d operations failed, first: %w", r.failed, r.attempted, r.firstErr))
		}
	}
	if s, ok := wl.(*simShape); ok {
		check(checkFingerprints(s.fingerprint, seed, all))
	}

	med := func(reps []*repResult, f func(*repResult) float64) quantile {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return quantile{median(xs), len(xs)}
	}
	if !traced {
		out.report(endToEnd, map[string]quantile{
			"setup_s":        med(plain, func(r *repResult) float64 { return r.setupS }),
			"cpu_s":          med(plain, func(r *repResult) float64 { return r.cpuS }),
			"msgs_per_cpu_s": med(plain, func(r *repResult) float64 { return r.msgs / r.cpuS }),
			"heap_live_mb":   med(plain, func(r *repResult) float64 { return r.heapMB }),
		})
		return out, nil
	}

	// Per-layer figures: spans and counters from the traced repetitions,
	// averaged; latencies, rates and runtime figures from the untraced ones.
	L := map[string]float64{}
	for _, r := range tracedReps {
		for k, v := range r.layers {
			L[k] += v
		}
	}
	for k := range L {
		L[k] /= float64(len(tracedReps))
	}
	samples := map[string]int{}
	set := func(name string, q quantile) { L[name], samples[name] = q.Value, q.Samples }
	if _, ok := wl.(*simShape); !ok {
		for p := range paradigmNames {
			var xs []float64
			for _, r := range plain {
				xs = append(xs, r.byParadigm[p]...)
			}
			for _, pct := range []float64{50, 90} {
				q, err := percentile(xs, pct)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", paradigmNames[p], err)
				}
				set(fmt.Sprintf("core.%s_p%g_us", paradigmNames[p], pct), q)
			}
		}
		set("core.ops_per_cpu_s", med(plain, func(r *repResult) float64 { return float64(r.ops) / r.cpuS }))
		set("core.fail_ratio", quantile{float64(out.result.Failed) / float64(out.result.Attempted), out.result.Attempted})
		set("go.allocs_per_op", med(plain, func(r *repResult) float64 { return r.mallocs / float64(r.ops) }))
		switch k := wl.(type) {
		case *kernelWL:
			ladder(k.in, L)
		case *wireWL:
			ladder(k.in, L)
		}
	}
	wall := med(plain, func(r *repResult) float64 { return r.runS })
	set("bench.run_wall_s", wall)
	set("go.allocs_per_msg", med(plain, func(r *repResult) float64 { return r.mallocs / r.msgs }))
	set("go.gc_cycles", med(plain, func(r *repResult) float64 { return r.gcCycles }))
	set("go.gc_pause_s", med(plain, func(r *repResult) float64 { return r.gcPauseS }))
	tracedWall := med(tracedReps, func(r *repResult) float64 { return r.runS })
	set("trace.overhead_ratio", quantile{tracedWall.Value / wall.Value, tracedWall.Samples})
	layers := map[string]quantile{}
	for _, m := range perLayer {
		n := samples[m.Name]
		if n == 0 {
			n = len(tracedReps)
		}
		layers[m.Name] = quantile{L[m.Name], n}
	}
	out.report(perLayer, layers)
	if err := writeSpans(lastTracer, name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
	return out, nil
}

// report adds metrics to the JSON result and the human-readable lines.
func (o *output) report(ms []metric, vals map[string]quantile) {
	for _, m := range ms {
		v := vals[m.Name]
		o.result.Metrics[m.Name] = value{Value: v.Value, Unit: m.Unit}
		o.lines = append(o.lines, fmt.Sprintf("%-32s %16.6g %-6s samples=%d", m.Name, v.Value, m.Unit, v.Samples))
	}
}

// checkFingerprints requires every repetition, traced or not, to produce
// the same simulated counts, and the committed ones for the default seed.
func checkFingerprints(committed string, seed int64, reps []*repResult) error {
	var errs []error
	first := reps[0]
	for i, r := range reps {
		if r.fingerprint != first.fingerprint {
			errs = append(errs, fmt.Errorf("repetition %d counts %q differ from repetition 0 %q", i, r.counts, first.counts))
		}
	}
	if seed == defaultSeed {
		if first.fingerprint != committed {
			errs = append(errs, fmt.Errorf("seed %d fingerprint %s (%s), committed %s",
				seed, first.fingerprint, first.counts, committed))
		}
	}
	return errors.Join(errs...)
}

// writeSpans dumps the last traced repetition's spans under .bench_build.
func writeSpans(tr *tracer, name string) error {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".tsv"))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
