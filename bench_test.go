// Benchmarks regenerating every experiment table/figure (one benchmark per
// experiment, named after its ID) plus micro-benchmarks of the middleware's
// hot paths.
//
//	go test -bench=. -benchmem
package logmob_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/ctxsvc"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/policy"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/sim"
	"logmob/internal/transport"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// benchExperiment runs one full experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := sim.ByID(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(int64(i + 1))
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkT1ParadigmTraffic(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkT2CodecCOD(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkT3Disaster(b *testing.B)        { benchExperiment(b, "T3") }
func BenchmarkT4DisasterLatency(b *testing.B) { benchExperiment(b, "T4") }
func BenchmarkT5Shopping(b *testing.B)        { benchExperiment(b, "T5") }
func BenchmarkT6Offload(b *testing.B)         { benchExperiment(b, "T6") }
func BenchmarkT7Discovery(b *testing.B)       { benchExperiment(b, "T7") }
func BenchmarkT8Security(b *testing.B)        { benchExperiment(b, "T8") }
func BenchmarkT9Cinema(b *testing.B)          { benchExperiment(b, "T9") }
func BenchmarkT10Micro(b *testing.B)          { benchExperiment(b, "T10") }
func BenchmarkA1Eviction(b *testing.B)        { benchExperiment(b, "A1") }
func BenchmarkA2Decider(b *testing.B)         { benchExperiment(b, "A2") }

// --- middleware hot paths ---

// BenchmarkVMDispatch measures raw interpreter throughput.
func BenchmarkVMDispatch(b *testing.B) {
	prog := vm.MustAssemble(`
.entry main
main:
	store 0
loop:
	load 0
	jz done
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	halt
`)
	b.ReportAllocs()
	var steps int64
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, nil, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.SetEntry("main", 1000); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// BenchmarkVMSnapshotRestore measures the strong-mobility primitive.
func BenchmarkVMSnapshotRestore(b *testing.B) {
	prog := vm.MustAssemble(`
.globals 8
.entry main
main:
	push 11
	call inner
	halt
inner:
	store 5
	push 99
	gstore 3
	push 1000000
	host pause
	ret
`)
	host := vm.NewHostTable()
	host.Register(vm.HostFunc{Name: "pause", Arity: 1,
		Fn: func(*vm.Machine, []int64) ([]int64, int64, error) { return nil, 1, nil }})
	m, err := vm.New(prog, host, 1000)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.SetEntry("main"); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := m.Snapshot()
		if _, err := vm.Restore(prog, host, 1000, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMEval measures one REV-style evaluation the way a serving host
// runs it: reinitialise a reused Machine for an already-assembled program,
// enter main with an argument and run to halt. Reinit instead of vm.New is
// the scratch-reuse path core takes for every repeat Eval of a cached
// program.
func BenchmarkVMEval(b *testing.B) {
	prog := vm.MustAssemble(`
.entry main
main:
	store 0
	push 0
loop:
	load 0
	jz done
	load 0
	add
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	halt
`)
	m, err := vm.New(prog, nil, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reinit(prog, nil, 1<<20); err != nil {
			b.Fatal(err)
		}
		if err := m.SetEntry("main", 100); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrame measures the transport read loop's per-frame decode
// with a recycled scratch buffer (the ReadFrameInto path every TCP and mux
// reader uses).
func BenchmarkReadFrame(b *testing.B) {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	var enc bytes.Buffer
	if _, err := wire.WriteFrame(&enc, payload); err != nil {
		b.Fatal(err)
	}
	data := enc.Bytes()
	br := bytes.NewReader(data)
	var buf []byte
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(data)
		frame, err := wire.ReadFrameInto(br, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame
	}
}

// BenchmarkLMUPackUnpack measures unit serialisation round trips (10KB unit).
func BenchmarkLMUPackUnpack(b *testing.B) {
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "bench", Version: "1.0", Kind: lmu.KindComponent},
		Code:     make([]byte, 5<<10),
		Data:     map[string][]byte{"table": make([]byte, 5<<10)},
	}
	b.SetBytes(int64(u.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed := u.Pack()
		if _, err := lmu.Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignVerify measures the security path run on every foreign unit.
func BenchmarkSignVerify(b *testing.B) {
	id := security.MustNewIdentity("bench")
	trust := security.NewTrustStore()
	trust.TrustIdentity(id)
	u := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "bench", Version: "1.0", Kind: lmu.KindComponent, Publisher: "bench"},
		Code:     make([]byte, 10<<10),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Sign(u)
		if err := security.Verify(u, trust, security.Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistry measures store churn under quota pressure.
func BenchmarkRegistry(b *testing.B) {
	units := make([]*lmu.Unit, 16)
	for i := range units {
		units[i] = &lmu.Unit{
			Manifest: lmu.Manifest{Name: string(rune('a' + i)), Version: "1.0", Kind: lmu.KindComponent},
			Code:     make([]byte, 1024),
		}
	}
	quota := int64(units[0].Size()) * 4
	r := registry.New(quota)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := units[i%len(units)]
		if err := r.Put(u); err != nil {
			b.Fatal(err)
		}
		r.Get(u.Manifest.Name)
	}
}

// BenchmarkKernelCallSim measures one CS round trip through the full kernel
// and simulator stack.
func BenchmarkKernelCallSim(b *testing.B) {
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	class := netsim.LAN
	mk := func(name string) *core.Host {
		net.AddNode(name, netsim.Position{}, class)
		ep, err := sn.Endpoint(name)
		if err != nil {
			b.Fatal(err)
		}
		h, err := core.NewHost(core.Config{Name: name, Endpoint: ep, Scheduler: s})
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	server := mk("server")
	client := mk("client")
	server.RegisterService("ping", func(string, [][]byte) ([][]byte, error) {
		return [][]byte{{1}}, nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		client.Call("server", "ping", [][]byte{{0}}, func([][]byte, error) { done = true })
		s.RunFor(time.Second)
		if !done {
			b.Fatal("call never completed")
		}
	}
}

// BenchmarkAgentHop measures one full agent migration (snapshot, transfer,
// verify, restore, resume) through the kernel and simulator.
func BenchmarkAgentHop(b *testing.B) {
	benchAgentHop(b)
}

func benchAgentHop(b *testing.B) {
	b.Helper()
	s := netsim.NewSim(1)
	net := netsim.NewNetwork(s)
	sn := transport.NewSimNetwork(net)
	mkPlat := func(name string) *core.Host {
		net.AddNode(name, netsim.Position{}, netsim.LAN)
		ep, err := sn.Endpoint(name)
		if err != nil {
			b.Fatal(err)
		}
		h, err := core.NewHost(core.Config{
			Name: name, Endpoint: ep, Scheduler: s,
			Policy: security.Policy{AllowUnsigned: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		return h
	}
	ha := mkPlat("a")
	hb := mkPlat("b")
	platA := newBenchPlatform(ha)
	newBenchPlatform(hb)

	prog := vm.MustAssemble(`
.entry main
main:
	host a_select_dest
	jz done
	host a_migrate
	pop
done:
	halt
`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platA.Spawn("hopper", prog,
			map[string][]byte{"dest": []byte("b")}, "main"); err != nil {
			b.Fatal(err)
		}
		s.RunFor(time.Second)
	}
}

// newBenchPlatform attaches an agent runtime with a fixed seed.
func newBenchPlatform(h *core.Host) *agent.Platform {
	return agent.NewPlatform(h, agent.Env{Seed: 1})
}

func BenchmarkA3UpdateCadence(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkT11FestivalScale regenerates the 2000-node festival scenario —
// the end-to-end proof that the grid-indexed simulator stays tractable at
// crowd scale. The netsim scaling micro-benchmarks (Neighbors/Broadcast/
// Route at n=100..5000, grid vs the linear-scan oracle) live in
// internal/netsim/grid_bench_test.go, where the unexported oracle is
// reachable.
func BenchmarkT11FestivalScale(b *testing.B) { benchExperiment(b, "T11") }

// BenchmarkT14AdaptiveLoop regenerates the adaptation race: five client
// groups, live sensing every 3s, per-interaction re-selection, batteries,
// escalating loss and station churn — the whole sense→decide→act loop
// end to end.
func BenchmarkT14AdaptiveLoop(b *testing.B) { benchExperiment(b, "T14") }

// BenchmarkT15Metropolis regenerates the metropolis scenario at its
// differential-test scale (1500 residents — the full 100k run is a
// multi-minute experiment, not a benchmark iteration): the sparse
// time-wheel tick, the hierarchical grid's district-local queries and the
// region-sharded move commit, end to end under all four paradigms. This is
// the regression canary for the engine that makes the full T15 tractable.
func BenchmarkT15Metropolis(b *testing.B) {
	e, ok := sim.ByID("T15")
	if !ok {
		b.Fatal("no experiment T15")
	}
	params := map[string]float64{
		"residents": 1500, "kiosks": 9, "field": 1200, "couriers": 8, "duration": 120,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.RunWith(int64(i+1), params)
		if len(res.Tables) == 0 {
			b.Fatal("T15 produced no tables")
		}
	}
}

// BenchmarkSchedulerArm measures the simulator's timing-wheel event queue
// on the beacon-shaped load it exists for: n self-re-arming timers on a
// shared 30s cadence with staggered phases, so every RunFor window fires n
// callbacks and pushes n re-arms. The n=1000000 row is the megacity scale
// (skipped in -short). internal/netsim's BenchmarkSchedulerArm runs the
// same load on the binary-heap oracle beside it.
func BenchmarkSchedulerArm(b *testing.B) {
	const ivl = 30 * time.Second
	for _, n := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("wheel/n%d", n), func(b *testing.B) {
			if n >= 1000000 && testing.Short() {
				b.Skip("1M-timer benchmark in -short mode")
			}
			s := netsim.NewSim(1)
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

// BenchmarkBeaconCadence measures one beacon interval of discovery traffic
// over a dense grid of ad-hoc nodes, n separately started beacons (each
// its own batch of one) vs one BeaconBatch: the shared batch replaces n
// timer re-arms per interval with one wheel callback and shares a single
// sorted scratch across every member's frame rebuild.
func BenchmarkBeaconCadence(b *testing.B) {
	const ivl = 30 * time.Second
	for _, mode := range []string{"perhost", "batch"} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/n%d", mode, n), func(b *testing.B) {
				s := netsim.NewSim(1)
				net := netsim.NewNetwork(s)
				sn := transport.NewSimNetwork(net)
				var batch *discovery.BeaconBatch
				if mode == "batch" {
					batch = discovery.NewBeaconBatch(s, ivl)
				}
				side := int(math.Ceil(math.Sqrt(float64(n))))
				class := netsim.AdHoc
				class.Loss = 0
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("h%05d", i)
					pos := netsim.Position{X: float64(i%side) * 20, Y: float64(i/side) * 20}
					net.AddNode(name, pos, class)
					ep, err := sn.Endpoint(name)
					if err != nil {
						b.Fatal(err)
					}
					bcn := discovery.NewBeacon(ep, s, ivl)
					bcn.Advertise(discovery.Ad{Service: "svc/" + name})
					if batch != nil {
						batch.Add(bcn)
					} else {
						bcn.Start()
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.RunFor(ivl)
				}
			})
		}
	}
}

// BenchmarkDecide measures one live decision: a validated, EWMA-smoothed,
// hysteretic paradigm selection over a sensed context — the hot call the
// adaptation engine makes before every interaction.
func BenchmarkDecide(b *testing.B) {
	ctx := ctxsvc.New(func() time.Duration { return 0 }, 16)
	ctx.SetNum(ctxsvc.KeyBandwidth, 90e3)
	ctx.SetNum(ctxsvc.KeyLatency, 0.03)
	ctx.SetNum(ctxsvc.KeyLoss, 0.15)
	ctx.SetNum(ctxsvc.KeyEnergyPerByte, 1)
	ctx.SetNum(ctxsvc.KeyBattery, 0.6)
	d := &policy.AdaptiveDecider{
		Objective:    policy.Objective{BytesWeight: 0.3, LatencyWeight: 600, EnergyWeight: 0.3},
		BatteryAware: true,
	}
	task := policy.Task{
		Interactions: 6, ReqBytes: 64, ReplyBytes: 64,
		CodeBytes: 1500, StateBytes: 200, ResultBytes: 32, ComputeUnits: 0.5,
	}
	allowed := policy.Paradigms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Decide(d, task, allowed, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
