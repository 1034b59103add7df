package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/transport"
)

// wireWL is the kernel closed loop over real loopback TCP: two in-process
// hosts, one connection pair, one client goroutine, wall-clock timers. It is
// the only workload through sockets, transport/tcp framing and goroutine
// hand-off.
type wireWL struct {
	in *kernelInputs
}

// lockedEndpoint serialises the client's deliveries with the client
// goroutine's agent spawns: the agent platform is single-goroutine, and TCP
// delivers on reader goroutines (see internal/agent's package comment). The
// server's platform is only ever driven by its one reader goroutine.
type lockedEndpoint struct {
	transport.Endpoint
	mu *sync.Mutex
}

// SetHandler implements transport.Endpoint.
func (e lockedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.Endpoint.SetHandler(nil)
		return
	}
	e.Endpoint.SetHandler(func(from string, payload []byte) {
		e.mu.Lock()
		defer e.mu.Unlock()
		h(from, payload)
	})
}

// tcpRig is one set-up of the two TCP hosts.
type tcpRig struct {
	eps            [2]*transport.TCPEndpoint // client, server
	client, server *core.Host
	cplat, splat   *agent.Platform
	mu             sync.Mutex // serialises the client platform
	agentDone      chan agent.Record
}

func (k *wireWL) setup(seed int64, tr *tracer) (*tcpRig, error) {
	r := &tcpRig{agentDone: make(chan agent.Record, 1)}
	trust := newTrust(k.in)
	sched := transport.NewWallScheduler()
	hosts := [2]**core.Host{&r.client, &r.server}
	for j := range r.eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.eps[j] = ep
		var tep transport.Endpoint = ep
		if tr != nil {
			tep = newTracedEndpoint(tep, tr, "tcp.send")
		}
		if j == 0 {
			tep = lockedEndpoint{tep, &r.mu}
		}
		h, err := core.NewHost(core.Config{
			Name: ep.Addr(), Endpoint: tep, Scheduler: sched,
			Trust: trust, ServeEval: true, RequestTimeout: opTimeout,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		*hosts[j] = h
	}
	r.splat = agent.NewPlatform(r.server, agent.Env{Seed: seed})
	r.cplat = agent.NewPlatform(r.client, agent.Env{Seed: seed + 1, OnDone: func(rec agent.Record) {
		select {
		case r.agentDone <- rec:
		default: // a stray second completion; the op already ended
		}
	}})
	r.server.RegisterService("echo", echoService())
	for _, u := range k.in.components {
		if err := r.server.Publish(u); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close stops both hosts and endpoints and waits for their goroutines.
func (r *tcpRig) close() {
	for _, h := range []*core.Host{r.client, r.server} {
		if h != nil {
			_ = h.Close() // detaches the mux channel; the endpoint is closed below
		}
	}
	for _, ep := range r.eps {
		if ep != nil {
			_ = ep.Close() // loopback teardown; a close error changes nothing here
		}
	}
}

// do runs one operation to completion on the calling goroutine.
func (r *tcpRig) do(in *kernelInputs, i int, o op) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	server := r.server.Addr()
	var err error
	start := time.Now()
	var end time.Time
	switch o.p {
	case cs:
		var res [][]byte
		res, err = r.client.CallSync(ctx, server, "echo", [][]byte{in.calls[b2i(o.large)]})
		end = time.Now()
		if err == nil {
			err = checkCall(o, res)
		}
	case rev:
		var st []int64
		st, err = r.client.EvalSync(ctx, server, in.components[o.unit], "main", []int64{o.arg})
		end = time.Now()
		if err == nil {
			err = checkEval(in, i, st)
		}
	case cod:
		u, e := r.client.FetchSync(ctx, server, in.components[o.unit].Manifest.Name, "")
		end, err = time.Now(), e
		if err == nil {
			err = checkFetch(in, o, u)
		}
	case ma:
		r.mu.Lock()
		_, err = r.cplat.SpawnUnit(in.agentCopy(o.unit, server, r.client.Addr()), "main")
		r.mu.Unlock()
		if err == nil {
			select {
			case rec := <-r.agentDone:
				end = time.Now()
				err = checkAgent(in, o, rec)
			case <-ctx.Done():
				err = fmt.Errorf("ma: agent round trip: %w", ctx.Err())
			}
		}
	}
	return end.Sub(start), err
}

func (k *wireWL) rep(seed int64, tr *tracer) (*repResult, error) {
	if k.in == nil {
		in, err := newKernelInputs(seed)
		if err != nil {
			return nil, err
		}
		k.in = in
	}
	runtime.GC()
	t0 := time.Now()
	r, err := k.setup(seed, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	res := &repResult{setupS: time.Since(t0).Seconds()}
	if err := warmUp(k.in, r.do); err != nil {
		return nil, err
	}
	base := hostStats(r.client, r.server)
	abase := [2]agent.Stats{r.cplat.Stats(), r.splat.Stats()}
	tu0 := tcpUsage(r.eps)
	timeOps(res, k.in, tr, r.do, nil)
	tu1 := tcpUsage(r.eps)
	res.msgs = float64(tu1.MsgsRecv - tu0.MsgsRecv)
	if tr != nil {
		st := tr.aggregate()
		L := map[string]float64{}
		L["transport.tcp.handoff_s"] = st.self["op.cs"] + st.self["op.rev"] + st.self["op.cod"] + st.self["op.ma"]
		L["transport.tcp.send_s"] = st.total["tcp.send"]
		L["transport.tcp.frames"] = float64(tu1.MsgsSent - tu0.MsgsSent)
		L["transport.tcp.bytes"] = float64(tu1.BytesSent - tu0.BytesSent)
		recvLayers(L, st)
		kernelLayers(L, base, hostStats(r.client, r.server), abase,
			[2]agent.Stats{r.cplat.Stats(), r.splat.Stats()})
		res.layers = L
	}
	return res, nil
}

func tcpUsage(eps [2]*transport.TCPEndpoint) transport.TCPUsage {
	var t transport.TCPUsage
	for _, ep := range eps {
		u := ep.Usage()
		t.MsgsSent += u.MsgsSent
		t.BytesSent += u.BytesSent
		t.MsgsRecv += u.MsgsRecv
		t.BytesRecv += u.BytesRecv
	}
	return t
}
