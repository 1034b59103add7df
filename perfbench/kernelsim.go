package main

import (
	"fmt"
	"runtime"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/scenario"
)

// kernelWL is the closed loop over the simulator: two hosts on a simulated
// LAN, no mobility and no beacons, so netsim does one unicast per frame and
// the time goes to the kernel's serving path.
type kernelWL struct {
	in *kernelInputs
}

// simRig is one set-up of the two simulated hosts.
type simRig struct {
	w              *scenario.World
	client, server *core.Host
	cplat, splat   *agent.Platform
	agentDone      func(agent.Record)
}

func (k *kernelWL) setup(seed int64, tr *tracer) *simRig {
	r := &simRig{w: scenario.NewWorld(seed)}
	r.w.Trust.TrustIdentity(k.in.id)
	cfg := func(c *core.Config) {
		c.RequestTimeout = opTimeout
		if tr != nil {
			c.Endpoint = newTracedEndpoint(c.Endpoint, tr, "netsim.send")
		}
	}
	r.server = r.w.AddHost("server", netsim.Position{}, netsim.LAN, cfg)
	r.client = r.w.AddHost("client", netsim.Position{}, netsim.LAN, cfg)
	r.splat = agent.NewPlatform(r.server, agent.Env{Seed: seed})
	r.cplat = agent.NewPlatform(r.client, agent.Env{Seed: seed + 1, OnDone: func(rec agent.Record) {
		if r.agentDone != nil {
			r.agentDone(rec)
		}
	}})
	r.server.RegisterService("echo", echoService())
	for _, u := range k.in.components {
		if err := r.server.Publish(u); err != nil {
			panic(err) // the pool is built here and always fits an unlimited registry
		}
	}
	return r
}

// do issues one operation and steps the simulator until its callback fires.
func (r *simRig) do(in *kernelInputs, i int, o op) (time.Duration, error) {
	var err error
	done := false
	var end time.Time
	start := time.Now()
	finish := func(e error) {
		end = time.Now()
		err, done = e, true
	}
	switch o.p {
	case cs:
		r.client.Call("server", "echo", [][]byte{in.calls[b2i(o.large)]}, func(res [][]byte, e error) {
			if e == nil {
				e = checkCall(o, res)
			}
			finish(e)
		})
	case rev:
		u := in.components[o.unit]
		r.client.Eval("server", u, "main", []int64{o.arg}, func(st []int64, e error) {
			if e == nil {
				e = checkEval(in, i, st)
			}
			finish(e)
		})
	case cod:
		name := in.components[o.unit].Manifest.Name
		r.client.Fetch("server", name, "", func(u *lmu.Unit, e error) {
			if e == nil {
				e = checkFetch(in, o, u)
			}
			finish(e)
		})
	case ma:
		r.agentDone = func(rec agent.Record) { finish(checkAgent(in, o, rec)) }
		if _, e := r.cplat.SpawnUnit(in.agentCopy(o.unit, "server", "client"), "main"); e != nil {
			finish(e)
		}
	}
	for !done {
		if !r.w.Sim.Step() {
			return 0, fmt.Errorf("%s op %d: event queue drained before the reply", paradigmNames[o.p], i)
		}
	}
	return end.Sub(start), err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (k *kernelWL) rep(seed int64, tr *tracer) (*repResult, error) {
	if k.in == nil {
		in, err := newKernelInputs(seed)
		if err != nil {
			return nil, err
		}
		k.in = in
	}
	runtime.GC()
	t0 := time.Now()
	r := k.setup(seed, tr)
	res := &repResult{setupS: time.Since(t0).Seconds()}
	if err := warmUp(k.in, r.do); err != nil {
		return nil, err
	}
	base := hostStats(r.client, r.server)
	abase := [2]agent.Stats{r.cplat.Stats(), r.splat.Stats()}
	u0 := r.w.Net.TotalUsage()
	depth := make([]float64, 0, len(k.in.ops))
	timeOps(res, k.in, tr, r.do, func() { depth = append(depth, float64(r.w.Sim.Pending())) })
	u1 := r.w.Net.TotalUsage()
	res.msgs = float64(u1.MsgsRecv - u0.MsgsRecv)
	if tr != nil {
		st := tr.aggregate()
		L := map[string]float64{}
		L["netsim.engine_self_s"] = st.self["op.cs"] + st.self["op.rev"] + st.self["op.cod"] + st.self["op.ma"]
		L["netsim.send_s"] = st.total["netsim.send"]
		L["netsim.send_calls"] = float64(st.count["netsim.send"])
		q, _ := percentile(depth, 50)
		L["netsim.queue_depth_p50"] = q.Value
		L["netsim.queue_depth_max"] = maxOf(depth)
		L["netsim.msgs_sent"] = float64(u1.MsgsSent - u0.MsgsSent)
		L["netsim.msgs_recv"] = float64(u1.MsgsRecv - u0.MsgsRecv)
		L["netsim.msgs_lost"] = float64(u1.MsgsLost - u0.MsgsLost)
		L["netsim.bytes_sent"] = float64(u1.BytesSent - u0.BytesSent)
		recvLayers(L, st)
		kernelLayers(L, base, hostStats(r.client, r.server), abase,
			[2]agent.Stats{r.cplat.Stats(), r.splat.Stats()})
		res.layers = L
	}
	runtime.KeepAlive(r)
	return res, nil
}

// hostStats sums the kernel counters of the two hosts.
func hostStats(hs ...*core.Host) core.Stats {
	var s core.Stats
	for _, h := range hs {
		addStats(&s, h.Stats())
	}
	return s
}
