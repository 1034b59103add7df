package main

import (
	"bufio"
	"bytes"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/registry"
	"logmob/internal/security"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// largeShare is the exact share of large operations genOps produces.
const largeShare = 1.0 / blockRounds

// sink keeps ladder results alive so the compiler cannot drop the calls.
var sink any

// timeNs is the median per-call time of f over several batches, after a
// warm-up. Batches are sized so the clock's resolution does not matter.
func timeNs(f func()) float64 {
	for i := 0; i < 10; i++ {
		f()
	}
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 200*time.Microsecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// ladder times the public functions each kernel serving path calls, on the
// exact units and payloads the kernel workload ships, and scales them by
// the timed phase's call counts (from core.Host.Stats and agent.Platform
// Stats, already in L) into an estimated share of the run per layer.
func ladder(in *kernelInputs, L map[string]float64) {
	trust := newTrust(in)
	mix := func(metric string) float64 {
		return (1-largeShare)*L[metric+".small"] + largeShare*L[metric+".large"]
	}
	for _, c := range []struct {
		name string
		unit int
	}{{"small", 0}, {"large", poolSize - 1}} {
		u, packed := in.components[c.unit], in.packed[c.unit]
		large := c.name == "large"
		L["lmu.pack_ns."+c.name] = timeNs(func() { sink = u.Pack() })
		L["lmu.unpack_ns."+c.name] = timeNs(func() { sink, _ = lmu.Unpack(packed) })
		L["security.verify_ns."+c.name] = timeNs(func() { sink = security.Verify(u, trust, security.Policy{}) })
		prog, err := vm.DecodeProgram(u.Code)
		if err != nil {
			panic(err) // pool programs are assembled by newKernelInputs; a failure is a bug
		}
		iters := agentIters(large)
		L["vm.run_ns."+c.name] = timeNs(func() {
			m, _ := vm.New(prog, vm.NewHostTable(), 1e6)
			_ = m.SetEntry("main", iters)
			sink = m.Run()
		})
		reg := registry.New(0)
		L["registry.put_ns."+c.name] = timeNs(func() { sink = reg.Put(u) })
		// The TCP transport writes frames straight to the connection and
		// reads them through a bufio.Reader into a reused buffer.
		var frame bytes.Buffer
		var src bytes.Reader
		br := bufio.NewReader(&src)
		scratch := make([]byte, 0, len(packed)+16)
		L["wire.frame_ns."+c.name] = timeNs(func() {
			frame.Reset()
			_, _ = wire.WriteFrame(&frame, packed)
			src.Reset(frame.Bytes())
			br.Reset(&src)
			sink, _ = wire.ReadFrameInto(br, scratch)
		})
	}
	L["vm.decode_ns"] = timeNs(func() { sink, _ = vm.DecodeProgram(in.components[0].Code) })

	unpacks := L["core.served.evals"] + L["core.fetches_ok"] + L["core.agents_in"]
	packs := L["core.evals_sent"] + L["core.served.fetches"] + L["agent.migrations"]
	L["lmu.est_s"] = (unpacks*mix("lmu.unpack_ns") + packs*mix("lmu.pack_ns")) / 1e9
	L["security.est_s"] = unpacks * mix("security.verify_ns") / 1e9
	// Every REV request and every agent activation (spawn plus each arrival)
	// runs the VM; decodes are cache hits once the warm-up has run.
	runs := L["core.served.evals"] + L["core.agents_in"] + L["agent.completed"]
	L["vm.est_s"] = runs * mix("vm.run_ns") / 1e9
	L["registry.est_s"] = L["core.fetches_ok"] * mix("registry.put_ns") / 1e9
	// Frames exist only on the TCP transport; the simulator hands payloads
	// over without framing.
	L["wire.est_s"] = L["transport.tcp.frames"] * mix("wire.frame_ns") / 1e9
}
