package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"logmob/internal/app"
	"logmob/internal/core"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// simShape is one simulated crowd, declared through the public scenario API.
type simShape struct {
	residents, kiosks  int
	field, radio       float64 // metres
	speedMin, speedMax float64 // metres per second
	pause              time.Duration
	beacon             time.Duration
	couriers           int
	csrev              bool // Client/Server and Remote Evaluation clients per kiosk
	workers            int
	guide              string // COD component every resident fetches
	guideSize          int
	retry              time.Duration
	warmup, duration   time.Duration
	// fingerprint is the committed count fingerprint for defaultSeed.
	fingerprint string
}

// city is the downtown shape: a dense, slow crowd where every slice is
// dominated by beacon delivery and ad ingest. One worker keeps the tick
// serial, so netsim delivery and the mux are what the run measures.
var city = simShape{
	residents: 10000, kiosks: 9, field: 3000, radio: 40,
	speedMin: 1, speedMax: 5, pause: 5 * time.Second,
	beacon: 25 * time.Second, couriers: 12, workers: 1,
	guide: "cityguide", guideSize: 4096, retry: 20 * time.Second,
	warmup: 30 * time.Second, duration: 60 * time.Second,
	fingerprint: "ec87d30ba72973bf",
}

// metro is the transit shape: a sparse, fast crowd with long dwells, where
// every slice is dominated by mobility (wheel parking, grid re-index,
// region-sharded planning) and delivery is light.
var metro = simShape{
	residents: 20000, kiosks: 25, field: 10000, radio: 40,
	speedMin: 10, speedMax: 30, pause: 240 * time.Second,
	beacon: 30 * time.Second, couriers: 16, csrev: true, workers: 2,
	guide: "transitpermit", guideSize: 8192, retry: 25 * time.Second,
	warmup: 30 * time.Second, duration: 270 * time.Second,
	fingerprint: "2f5a58bf95e68b54",
}

// simRun is one compiled crowd plus the workload values its counts are read
// from.
type simRun struct {
	spec  *scenario.Spec
	wave  *scenario.FetchWave
	fleet *scenario.Couriers
	cs    *csrevStats
	mob   *mobTimer // nil when untraced
}

// build declares the crowd. With a tracer, every host's endpoint and the
// residents' mobility model are wrapped in timing decorators.
func (s *simShape) build(tr *tracer) *simRun {
	side := int(math.Ceil(math.Sqrt(float64(s.kiosks))))
	kioskPos := make(scenario.PlacePoints, s.kiosks)
	for k := range kioskPos {
		kioskPos[k] = netsim.Position{
			X: s.field / float64(side) * (float64(k%side) + 0.5),
			Y: s.field / float64(side) * (float64(k/side) + 0.5),
		}
	}
	r := &simRun{}
	r.wave = &scenario.FetchWave{
		Pop: "r", ServerPop: "kiosk",
		Unit: func(w *scenario.World) *lmu.Unit {
			return app.BuildCodec(w.ID, s.guide, "1.0", s.guideSize)
		},
		Entry: "decode", Args: []int64{8},
		Retry: s.retry,
	}
	r.fleet = &scenario.Couriers{
		Count: s.couriers, TargetPop: "kiosk", SourcePop: "r",
		SrcMin: 250, SrcMax: 450, PayloadBytes: 200,
		NamePrefix: "courier", TopicPrefix: "courier/",
	}
	workloads := []scenario.Workload{r.wave, r.fleet}
	if s.csrev {
		r.cs = &csrevStats{}
		workloads = append(workloads, r.cs.workload())
	}
	var mobility netsim.MobilityModel = &netsim.RandomWaypoint{
		FieldW: s.field, FieldH: s.field,
		SpeedMin: s.speedMin, SpeedMax: s.speedMax, Pause: s.pause,
	}
	var configHost func(*core.Config)
	if tr != nil {
		mobility, r.mob = wrapMobility(mobility)
		configHost = func(c *core.Config) {
			c.Endpoint = newTracedEndpoint(c.Endpoint, tr, "netsim.send")
		}
	}
	r.spec = &scenario.Spec{
		Name:  "perfbench crowd",
		Field: scenario.Field{Width: s.field, Height: s.field},
		Populations: []scenario.Population{
			{
				Name: "kiosk", Count: s.kiosks, Place: kioskPos,
				Link: netsim.AdHoc, Range: s.radio,
				AllowUnsigned: true, ConfigHost: configHost,
				Agents: true, MaxHops: 4096, ExtraCaps: scenario.GreedyGeoCaps,
				Beacon: s.beacon,
				Ads:    []discovery.Ad{{Service: "info"}}, AdSelf: "info/",
			},
			{
				Name: "r", Count: s.residents, Place: scenario.PlaceUniform{},
				Link: netsim.AdHoc, Range: s.radio,
				AllowUnsigned: true, ConfigHost: configHost,
				Agents: true, AgentSeedOffset: int64(s.kiosks), MaxHops: 4096,
				ExtraCaps: scenario.GreedyGeoCaps,
				Beacon:    s.beacon,
				Ads:       []discovery.Ad{{Service: "presence"}},
				Mobility:  mobility, MobilityTick: time.Second,
			},
		},
		Warmup:    s.warmup,
		Duration:  s.duration,
		Workloads: workloads,
		Workers:   s.workers,
	}
	return r
}

// csrevStats counts the metro's Client/Server and Remote Evaluation
// completions: per kiosk, the nearest resident runs csRounds echo calls and
// the next nearest one remote evaluation, retrying on failure.
type csrevStats struct {
	csDone, revDone int
}

const csRounds = 12

func (c *csrevStats) workload() scenario.Workload {
	return scenario.Func(func(w *scenario.World) {
		*c = csrevStats{}
		reply := make([]byte, 96)
		req := make([]byte, 200)
		claimed := map[string]bool{}
		nearest := func(kiosk string) string {
			pos := w.Net.Node(kiosk).Pos()
			best, bestD := "", math.Inf(1)
			for _, name := range w.Pops["r"] {
				if d := w.Net.Node(name).Pos().Dist(pos); !claimed[name] && d < bestD {
					best, bestD = name, d
				}
			}
			claimed[best] = true
			return best
		}
		for _, kiosk := range w.Pops["kiosk"] {
			w.Hosts[kiosk].RegisterService("echo", func(string, [][]byte) ([][]byte, error) {
				return [][]byte{reply}, nil
			})
			client := w.Hosts[nearest(kiosk)]
			remaining := csRounds
			var call func()
			call = func() {
				client.Call(kiosk, "echo", [][]byte{req}, func(_ [][]byte, err error) {
					if err != nil {
						w.Sim.Schedule(10*time.Second, call)
						return
					}
					c.csDone++
					if remaining--; remaining > 0 {
						call()
					}
				})
			}
			call()

			evaluator := w.Hosts[nearest(kiosk)]
			job := app.BuildCodec(w.ID, "job-"+kiosk, "1.0", 256)
			job.Manifest.Kind = lmu.KindRequest
			w.ID.Sign(job)
			var eval func()
			eval = func() {
				evaluator.Eval(kiosk, job, "decode", []int64{8}, func(_ []int64, err error) {
					if err != nil {
						w.Sim.Schedule(15*time.Second, eval)
						return
					}
					c.revDone++
				})
			}
			eval()
		}
	})
}

// counts returns the simulated counts a performance change must leave
// exactly equal, as text and as its FNV-64a fingerprint.
func (r *simRun) counts(w *scenario.World) (string, string) {
	u := w.Net.TotalUsage()
	var hops int64
	for _, p := range w.Platforms {
		hops += p.Stats().Migrations
	}
	text := fmt.Sprintf("sent=%d recv=%d lost=%d bytes=%d epochs=%d fetched=%d hops=%d delivered=%d",
		u.MsgsSent, u.MsgsRecv, u.MsgsLost, u.BytesSent, w.Net.TopologyEpoch(),
		r.wave.Stats.Fetched, hops, len(r.fleet.Stats.DeliveredBy))
	if r.cs != nil {
		text += fmt.Sprintf(" cs=%d rev=%d", r.cs.csDone, r.cs.revDone)
	}
	h := fnv.New64a()
	h.Write([]byte(text))
	return text, fmt.Sprintf("%016x", h.Sum64())
}

// rep compiles the crowd for seed and runs it for warmup+duration of virtual
// time in one-second slices. Set-up is the Compile; the timed phase is
// every slice plus the workload starts between them.
func (s *simShape) rep(seed int64, tr *tracer) (*repResult, error) {
	r := s.build(tr)
	runtime.GC()
	t0 := time.Now()
	w := r.spec.Compile(seed)
	res := &repResult{setupS: time.Since(t0).Seconds()}

	slices := int((s.warmup + s.duration) / time.Second)
	warm := int(s.warmup / time.Second)
	depth := make([]float64, 0, slices)
	var startS float64
	// Start the timed phase from a collected heap, so the number of GC
	// cycles inside it depends on the workload, not on set-up garbage.
	runtime.GC()
	m0 := readMem()
	c1 := cpuTime()
	t1 := time.Now()
	for k := 0; k < slices; k++ {
		if k == warm {
			a := time.Now()
			for _, wl := range r.spec.Workloads {
				wl.Start(w)
			}
			startS = time.Since(a).Seconds()
		}
		root := int32(-1)
		if tr != nil {
			root = tr.beginRoot("bench.slice", int32(k))
		}
		w.Sim.RunFor(time.Second)
		if tr != nil {
			tr.endRoot(root)
		}
		depth = append(depth, float64(w.Sim.Pending()))
	}
	res.runS = time.Since(t1).Seconds()
	res.cpuS = (cpuTime() - c1).Seconds()
	m1 := readMem()
	res.heapMB = liveHeapMB()
	res.mallocs, res.gcCycles, res.gcPauseS = m1.diff(m0)

	u := w.Net.TotalUsage()
	res.msgs = float64(u.MsgsRecv)
	text, fp := r.counts(w)
	res.counts, res.fingerprint = text, fp
	res.attempted = 1
	if tr != nil {
		res.layers = s.layers(r, w, tr, depth, slices)
		res.layers["scenario.compile_s"] = res.setupS
		res.layers["scenario.workload_start_s"] = startS
	}
	runtime.KeepAlive(w)
	return res, nil
}

// layers derives the per-layer metrics of one traced crowd run.
func (s *simShape) layers(r *simRun, w *scenario.World, tr *tracer, depth []float64, slices int) map[string]float64 {
	st := tr.aggregate()
	L := map[string]float64{}
	mobNs := r.mob.serialNs()
	L["netsim.engine_self_s"] = st.self["bench.slice"] - float64(mobNs)/1e9
	L["netsim.send_s"] = st.total["netsim.send"] + st.total["netsim.broadcast"]
	L["netsim.send_calls"] = float64(st.count["netsim.send"])
	L["netsim.broadcast_calls"] = float64(st.count["netsim.broadcast"])
	if b := st.count["netsim.broadcast"]; b > 0 {
		L["netsim.fanout"] = float64(st.count["recv.beacon"]) / float64(b)
	}
	calls := r.mob.calls()
	L["netsim.mobility.plan_calls"] = float64(calls)
	L["netsim.mobility.plan_cpu_s"] = float64(r.mob.planCPUNs.Load()+r.mob.stepNs.Load()) / 1e9
	L["netsim.mobility.commit_s"] = float64(r.mob.commitNs.Load()) / 1e9
	L["netsim.mobility.active_ratio"] = float64(calls) / float64(s.residents*slices)
	q, _ := percentile(depth, 50)
	L["netsim.queue_depth_p50"] = q.Value
	L["netsim.queue_depth_max"] = maxOf(depth)
	u := w.Net.TotalUsage()
	L["netsim.msgs_sent"] = float64(u.MsgsSent)
	L["netsim.msgs_recv"] = float64(u.MsgsRecv)
	L["netsim.msgs_lost"] = float64(u.MsgsLost)
	L["netsim.bytes_sent"] = float64(u.BytesSent)
	L["netsim.topology_epochs"] = float64(w.Net.TopologyEpoch())
	recvLayers(L, st)
	var sent, heard int64
	for _, b := range w.Beacons {
		sent += b.Sent
		heard += b.Heard
	}
	L["discovery.beacons_sent"] = float64(sent)
	L["discovery.beacons_heard"] = float64(heard)
	var hs core.Stats
	for _, h := range w.Hosts {
		addStats(&hs, h.Stats())
	}
	L["core.timeouts"] = float64(hs.Timeouts)
	L["core.verify_failures"] = float64(hs.VerifyFailures)
	for _, p := range w.Platforms {
		ps := p.Stats()
		L["agent.migrations"] += float64(ps.Migrations)
		L["agent.migration_failures"] += float64(ps.MigrationFailures)
		L["agent.completed"] += float64(ps.Completed)
	}
	return L
}
