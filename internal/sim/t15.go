package sim

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/app"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/metrics"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// T15 parameters: a metropolis — another order of magnitude beyond T12's
// city. A hundred thousand residents move at transit speeds across a
// 10km-square metro area dotted with a 5x5 lattice of district kiosks, and
// all four mobile-code paradigms run at once over the same crowd. The
// trip/dwell rhythm (minutes of transit, a long errand dwell at each
// destination) is what the sparse tick engine exploits: at any instant a
// large fraction of the crowd is dwelling and costs the mobility tick
// nothing, while the hierarchical grid keeps every neighbor query local to
// its district rather than the 10km field.
const (
	t15Residents = 100000
	t15Kiosks    = 25      // 5x5 district lattice
	t15Field     = 10000.0 // metres square
	t15Range     = 40.0    // ~5 expected radio neighbors: heavily partitioned
	t15Couriers  = 16
	t15BeaconIvl = 30 * time.Second
	t15Warmup    = 30 * time.Second
	t15MsgSize   = 200
	t15PassSize  = 8192 // transit-permit component coefficient table, bytes
	t15Retry     = 25 * time.Second
	t15CSRounds  = 12 // request/reply rounds per CS client
	// Courier source band, metres from the target kiosk: many radio hops
	// out, so couriers must be physically carried across districts.
	t15SrcMin = 400.0
	t15SrcMax = 700.0
	// Transit-speed trips with long errand dwells: the quiescent majority
	// sparse ticking parks for free.
	t15SpeedMin = 10.0
	t15SpeedMax = 30.0
	t15Dwell    = 240 * time.Second
)

// T15 is the metropolis capstone for the hierarchical-grid + sparse-tick
// engine: T12 proved 10k nodes, this proves 100k under the exact same
// bit-identical determinism contract — the rendered tables are identical at
// any -workers count, and every pre-existing golden is unchanged by the
// engine that makes this population tractable.
func T15() Experiment {
	return FromSpec("T15", "Metropolis: 100k nodes, four paradigms, sparse ticking",
		`"the increasing popularity of powerful, small-factor computing `+
			`devices" — taken to metropolitan scale: one hundred thousand `+
			`residents on one ad-hoc field, with Client/Server, Remote `+
			`Evaluation, Code-on-Demand and Mobile-Agent workloads racing over `+
			`the same crowd. Tractable only because quiescent nodes cost zero `+
			`(sparse ticking) and queries scale with district density, not field `+
			`size (two-level grid).`,
		map[string]float64{
			"residents": t15Residents,
			"kiosks":    t15Kiosks,
			"field":     t15Field,
			"range":     t15Range,
			"couriers":  t15Couriers,
			"duration":  300, // seconds of post-warmup run
		},
		t15Spec,
		"expected shape: the transit-permit rollout reaches the fraction of the crowd that dwells near a kiosk, couriers cross districts on carried hops, CS/REV complete only for clients camped near their kiosk — and the table is byte-identical per seed at any -workers count",
	)
}

// t15Paradigms accumulates the bespoke CS/REV outcomes; the same value is
// read by the probe after the run.
type t15Paradigms struct {
	csDone, csRounds   int
	revDone, revTarget int
}

// t15Spec declares the metropolis for one parameter set. Kiosks sit on a
// square district lattice as ordinary ad-hoc nodes: resident contact still
// requires radio range.
func t15Spec(p map[string]float64) *scenario.Spec {
	residents := int(p["residents"])
	kiosks := int(p["kiosks"])
	field := p["field"]
	radio := p["range"]
	duration := time.Duration(p["duration"]) * time.Second

	side := int(math.Ceil(math.Sqrt(float64(kiosks))))
	kioskPos := make(scenario.PlacePoints, kiosks)
	for k := range kioskPos {
		kioskPos[k] = netsim.Position{
			X: field / float64(side) * (float64(k%side) + 0.5),
			Y: field / float64(side) * (float64(k/side) + 0.5),
		}
	}

	// COD: the transit-permit component, published on every kiosk, fetched by
	// every resident that dwells within kiosk range.
	wave := &scenario.FetchWave{
		Pop: "r", ServerPop: "kiosk",
		Unit: func(w *scenario.World) *lmu.Unit {
			return app.BuildCodec(w.ID, "transitpermit", "3.0", t15PassSize)
		},
		Entry: "decode", Args: []int64{8},
		Retry: t15Retry,
	}

	// MA: store-carry-forward couriers from deep inside a district to its
	// kiosk.
	fleet := &scenario.Couriers{
		Count:        int(p["couriers"]),
		TargetPop:    "kiosk",
		SourcePop:    "r",
		SrcMin:       t15SrcMin,
		SrcMax:       t15SrcMax,
		PayloadBytes: t15MsgSize,
		NamePrefix:   "courier",
		TopicPrefix:  "metro/courier",
	}

	stats := &t15Paradigms{}

	return &scenario.Spec{
		Name:  "Metropolis",
		Field: scenario.Field{Width: field, Height: field},
		Populations: []scenario.Population{
			{
				Name: "kiosk", Count: kiosks, Place: kioskPos,
				Link: netsim.AdHoc, Range: radio,
				AllowUnsigned: true,
				Agents:        true, MaxHops: 4096,
				ExtraCaps: scenario.GreedyGeoCaps,
				Beacon:    t15BeaconIvl,
				Ads:       []discovery.Ad{{Service: "metro/info"}},
				AdSelf:    "metro/",
			},
			{
				Name: "r", Count: residents, Place: scenario.PlaceUniform{},
				Link: netsim.AdHoc, Range: radio,
				AllowUnsigned: true,
				Agents:        true, AgentSeedOffset: int64(kiosks), MaxHops: 4096,
				ExtraCaps: scenario.GreedyGeoCaps,
				Beacon:    t15BeaconIvl,
				Ads:       []discovery.Ad{{Service: "presence"}},
				Mobility: &netsim.RandomWaypoint{
					FieldW: field, FieldH: field,
					SpeedMin: t15SpeedMin, SpeedMax: t15SpeedMax, Pause: t15Dwell,
				},
				MobilityTick: time.Second,
			},
		},
		Warmup:    t15Warmup,
		Duration:  duration,
		Workloads: []scenario.Workload{wave, fleet, t15CSREV(stats)},
		Probes: []scenario.Probe{
			scenario.MeanNeighbors{Pop: "r"},
			scenario.TopologyEpochs{},
			scenario.BeaconTraffic{},
			scenario.Coverage{Pop: "r", Service: "metro/info"},
			scenario.ProbeFunc(stats.collect),
			scenario.Fetches{Of: wave, Prefix: "permit"},
			scenario.AgentHops{Label: "courier hops / failed"},
			scenario.Deliveries{Of: fleet},
			scenario.NetTraffic{},
		},
		TableTitle: fmt.Sprintf(
			"Table T15: %d residents + %d kiosks, %gx%gm metro, range %gm, %v deadline",
			residents, kiosks, field, field, radio, duration),
	}
}

// t15CSREV starts the Client/Server and Remote Evaluation workloads: for
// each kiosk, the nearest unclaimed resident becomes its CS client (rounds
// of echo calls, retrying failures) and the next-nearest its REV client
// (one eval job, retried until it lands). Selection is deterministic: ties
// resolve in creation order.
func t15CSREV(stats *t15Paradigms) scenario.Workload {
	return scenario.Func(func(w *scenario.World) {
		// Reset, not accumulate: the same spec value may start once per seed.
		*stats = t15Paradigms{}
		kiosks := w.Pops["kiosk"]
		reply := make([]byte, 96)
		for _, k := range kiosks {
			w.Hosts[k].RegisterService("metro/echo", func(string, [][]byte) ([][]byte, error) {
				return [][]byte{reply}, nil
			})
		}
		claimed := map[string]bool{}
		nearest := func(kiosk string) string {
			pos := w.Net.Node(kiosk).Pos()
			best, bestD := "", math.Inf(1)
			for _, name := range w.Pops["r"] {
				if claimed[name] {
					continue
				}
				if d := w.Net.Node(name).Pos().Dist(pos); d < bestD {
					best, bestD = name, d
				}
			}
			if best != "" {
				claimed[best] = true
			}
			return best
		}

		req := make([]byte, t15MsgSize)
		for _, k := range kiosks {
			kiosk := k

			// CS: sequential echo rounds, a failed round retries in 10s.
			csName := nearest(kiosk)
			if csName == "" {
				continue
			}
			stats.csRounds += t15CSRounds
			client := w.Hosts[csName]
			remaining := t15CSRounds
			var call func()
			call = func() {
				if remaining <= 0 {
					return
				}
				client.Call(kiosk, "metro/echo", [][]byte{req}, func(_ [][]byte, err error) {
					if err != nil {
						w.Sim.Schedule(10*time.Second, call)
						return
					}
					remaining--
					stats.csDone++
					call()
				})
			}
			call()

			// REV: one eval job shipped to the kiosk, retried until it runs.
			revName := nearest(kiosk)
			if revName == "" {
				continue
			}
			stats.revTarget++
			evalClient := w.Hosts[revName]
			job := app.BuildCodec(w.ID, "metrojob-"+kiosk, "1.0", 256)
			job.Manifest.Kind = lmu.KindRequest
			w.ID.Sign(job)
			done := false
			var eval func()
			eval = func() {
				if done {
					return
				}
				evalClient.Eval(kiosk, job, "decode", []int64{8}, func(_ []int64, err error) {
					if err != nil {
						w.Sim.Schedule(15*time.Second, eval)
						return
					}
					if !done {
						done = true
						stats.revDone++
					}
				})
			}
			eval()
		}
	})
}

// collect renders the bespoke paradigm completions.
func (s *t15Paradigms) collect(_ *scenario.World, t *metrics.Table) {
	t.AddRow("cs rounds completed", fmt.Sprintf("%d/%d", s.csDone, s.csRounds))
	t.AddRow("rev evals completed", fmt.Sprintf("%d/%d", s.revDone, s.revTarget))
}
