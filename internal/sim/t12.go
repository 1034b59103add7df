package sim

import (
	"fmt"
	"math"
	"time"

	"logmob/internal/app"
	"logmob/internal/discovery"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// T12 parameters: a city — an order of magnitude beyond T11's festival.
// Ten thousand residents roam a 3km-square downtown dotted with a lattice
// of municipal info kiosks. Two mobile-code paradigms run at once over the
// same crowd: a code-on-demand wave (every resident fetches the city-guide
// component from whichever kiosk it roams past) and mobile-agent couriers
// (store-carry-forward messages ferried to kiosks across the partitioned
// crowd). The population, kiosk count, field and radio range are sweepable.
const (
	t12Residents = 10000
	t12Kiosks    = 9      // 3x3 municipal lattice
	t12Field     = 3000.0 // metres square
	t12Range     = 40.0   // ~4.5 expected radio neighbors: partitioned
	t12Couriers  = 12
	t12BeaconIvl = 25 * time.Second
	t12Warmup    = 30 * time.Second
	t12Deadline  = 5 * time.Minute
	t12MsgSize   = 200
	t12GuideSize = 4096 // city-guide component coefficient table, bytes
	t12Retry     = 20 * time.Second
	// Courier source band, metres from the target kiosk: well beyond one
	// radio hop, so couriers must be carried.
	t12SrcMin = 250.0
	t12SrcMax = 450.0
)

// T12 is the city-scale workload the parallel tick pipeline exists for:
// 10k nodes is wall-clock-bound on the serial engine (the per-tick mobility
// and neighbor-recomputation work dominates), so this experiment is only
// pleasant to run with -workers > 1 — while producing bit-identical tables
// at any worker count.
func T12() Experiment {
	return FromSpec("T12", "City scale-out: 10k-node mixed-paradigm downtown",
		`"the increasing popularity of powerful, small-factor computing `+
			`devices" — pushed to city scale: a code-on-demand update wave and `+
			`mobile-agent couriers sharing one 10k-node ad-hoc crowd. The `+
			`simulator must stay tractable, which is what the sharded two-phase `+
			`tick pipeline buys.`,
		map[string]float64{
			"residents": t12Residents,
			"kiosks":    t12Kiosks,
			"field":     t12Field,
			"range":     t12Range,
			"couriers":  t12Couriers,
		},
		t12Spec,
		"expected shape: the guide rolls out to the fraction of the crowd that roams past a kiosk before the deadline, most couriers cross their partition, and wall-clock scales with -workers while every table stays byte-identical to the serial engine",
	)
}

// t12Spec declares the city for one parameter set. Kiosks sit on a square
// lattice and are ordinary ad-hoc nodes (municipal hotspots, not
// infrastructure): resident contact still requires radio range.
func t12Spec(p map[string]float64) *scenario.Spec {
	residents := int(p["residents"])
	kiosks := int(p["kiosks"])
	field := p["field"]
	radio := p["range"]

	// ceil(sqrt(k)) x ceil(sqrt(k)) lattice, cells centred.
	side := int(math.Ceil(math.Sqrt(float64(kiosks))))
	kioskPos := make(scenario.PlacePoints, kiosks)
	for k := range kioskPos {
		kioskPos[k] = netsim.Position{
			X: field / float64(side) * (float64(k%side) + 0.5),
			Y: field / float64(side) * (float64(k/side) + 0.5),
		}
	}

	// COD: the city-guide component, published on every kiosk, fetched by
	// every resident that roams into kiosk range.
	wave := &scenario.FetchWave{
		Pop: "r", ServerPop: "kiosk",
		Unit: func(w *scenario.World) *lmu.Unit {
			return app.BuildCodec(w.ID, "cityguide", "2.0", t12GuideSize)
		},
		Entry: "decode", Args: []int64{8},
		Retry: t12Retry,
	}

	// MA: store-carry-forward couriers from deep in the crowd to a kiosk.
	fleet := &scenario.Couriers{
		Count:        int(p["couriers"]),
		TargetPop:    "kiosk",
		SourcePop:    "r",
		SrcMin:       t12SrcMin,
		SrcMax:       t12SrcMax,
		PayloadBytes: t12MsgSize,
		NamePrefix:   "courier",
		TopicPrefix:  "city/courier",
	}

	return &scenario.Spec{
		Name:  "City scale-out",
		Field: scenario.Field{Width: field, Height: field},
		Populations: []scenario.Population{
			{
				Name: "kiosk", Count: kiosks, Place: kioskPos,
				Link: netsim.AdHoc, Range: radio,
				AllowUnsigned: true,
				Agents:        true, MaxHops: 4096,
				ExtraCaps: scenario.GreedyGeoCaps,
				Beacon:    t12BeaconIvl,
				Ads:       []discovery.Ad{{Service: "city/info"}},
				AdSelf:    "city/",
			},
			{
				Name: "r", Count: residents, Place: scenario.PlaceUniform{},
				Link: netsim.AdHoc, Range: radio,
				AllowUnsigned: true,
				Agents:        true, AgentSeedOffset: int64(kiosks), MaxHops: 4096,
				ExtraCaps: scenario.GreedyGeoCaps,
				Beacon:    t12BeaconIvl,
				Ads:       []discovery.Ad{{Service: "presence"}},
				Mobility: &netsim.RandomWaypoint{
					FieldW: field, FieldH: field,
					SpeedMin: 1, SpeedMax: 5, Pause: 5 * time.Second,
				},
				MobilityTick: time.Second,
			},
		},
		Warmup:    t12Warmup,
		Duration:  t12Deadline,
		Workloads: []scenario.Workload{wave, fleet},
		Probes: []scenario.Probe{
			scenario.MeanNeighbors{Pop: "r"},
			scenario.TopologyEpochs{},
			scenario.BeaconTraffic{},
			scenario.Coverage{Pop: "r", Service: "city/info"},
			scenario.Fetches{Of: wave, Prefix: "guide"},
			scenario.AgentHops{Label: "courier hops / failed"},
			scenario.Deliveries{Of: fleet},
			scenario.NetTraffic{},
		},
		TableTitle: fmt.Sprintf(
			"Table T12: %d residents + %d kiosks, %gx%gm field, range %gm, %v deadline",
			residents, kiosks, field, field, radio, t12Deadline),
	}
}
