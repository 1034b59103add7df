package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/security"
)

// repResult is one repetition of a workload: a fresh set-up, then the
// timed phase.
type repResult struct {
	setupS     float64               // wall time
	runS, cpuS float64               // wall and process CPU time of the timed phase
	msgs       float64               // messages delivered during the timed phase
	heapMB     float64               // live heap after a forced GC, workload reachable
	byParadigm [nParadigms][]float64 // µs per completed kernel operation
	ops        int                   // operations completed (kernel workloads)
	attempted  int
	failed     int
	firstErr   error
	// counts and fingerprint are the simulated counts (crowd workloads).
	counts, fingerprint string
	mallocs, gcCycles   float64
	gcPauseS            float64
	layers              map[string]float64 // traced repetitions only
}

// memSnap is the slice of runtime.MemStats the benchmark reports.
type memSnap struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, numGC: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// diff returns allocations, GC cycles and GC pause seconds since old.
func (m memSnap) diff(old memSnap) (float64, float64, float64) {
	return float64(m.mallocs - old.mallocs), float64(m.numGC - old.numGC), float64(m.pauseNs-old.pauseNs) / 1e9
}

// liveHeapMB forces a collection and reports the live heap. The caller keeps
// its workload reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.CallsSent += s.CallsSent
	dst.CallsServed += s.CallsServed
	dst.EvalsSent += s.EvalsSent
	dst.EvalsServed += s.EvalsServed
	dst.FetchesSent += s.FetchesSent
	dst.FetchesOK += s.FetchesOK
	dst.FetchesServed += s.FetchesServed
	dst.AgentsSent += s.AgentsSent
	dst.AgentsIn += s.AgentsIn
	dst.AgentsRefused += s.AgentsRefused
	dst.VerifyFailures += s.VerifyFailures
	dst.Timeouts += s.Timeouts
	dst.MessagesIn += s.MessagesIn
	dst.MessagesSent += s.MessagesSent
}

// recvLayers attributes receive spans to transport, discovery and core.
// Receive self time excludes sends made while handling, so receive, send,
// mobility and engine self time add up to the traced run.
func recvLayers(L map[string]float64, st spanStats) {
	for name := range st.total {
		if !strings.HasPrefix(name, "recv.") {
			continue
		}
		L["transport.recv_s"] += st.self[name]
		if strings.HasPrefix(name, "recv.kernel.") {
			L["transport.recv_frames.kernel"] += float64(st.count[name])
		}
	}
	frames := st.count["recv.beacon"]
	L["transport.recv_frames.beacon"] = float64(frames)
	L["discovery.ingest_s"] = st.self["recv.beacon"]
	if frames > 0 {
		L["discovery.ingest_ns_per_frame"] = st.self["recv.beacon"] * 1e9 / float64(frames)
	}
	for _, t := range []string{"call", "eval", "fetch", "agent", "reply"} {
		L["core.recv_s."+t] = st.self["recv.kernel."+t]
	}
}

// kernelLayers reports the kernel and agent counters of the timed phase of
// a closed loop, from snapshots taken before and after it.
func kernelLayers(L map[string]float64, before, after core.Stats, abefore, aafter [2]agent.Stats) {
	L["core.timeouts"] = float64(after.Timeouts - before.Timeouts)
	L["core.verify_failures"] = float64(after.VerifyFailures - before.VerifyFailures)
	for j := range aafter {
		L["agent.migrations"] += float64(aafter[j].Migrations - abefore[j].Migrations)
		L["agent.migration_failures"] += float64(aafter[j].MigrationFailures - abefore[j].MigrationFailures)
		L["agent.completed"] += float64(aafter[j].Completed - abefore[j].Completed)
	}
	L["core.served.evals"] = float64(after.EvalsServed - before.EvalsServed)
	L["core.served.fetches"] = float64(after.FetchesServed - before.FetchesServed)
	L["core.fetches_ok"] = float64(after.FetchesOK - before.FetchesOK)
	L["core.agents_in"] = float64(after.AgentsIn - before.AgentsIn)
	L["core.evals_sent"] = float64(after.EvalsSent - before.EvalsSent)
	L["core.calls_served"] = float64(after.CallsServed - before.CallsServed)
}

// newTrust returns a trust store that trusts the inputs' publisher.
func newTrust(in *kernelInputs) *security.TrustStore {
	t := security.NewTrustStore()
	t.TrustIdentity(in.id)
	return t
}

// cpuTime is the CPU time the process has used, user plus system, over all
// its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
