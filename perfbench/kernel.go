package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"logmob/internal/agent"
	"logmob/internal/core"
	"logmob/internal/lmu"
	"logmob/internal/security"
	"logmob/internal/vm"
	"logmob/internal/wire"
)

// The four logical-mobility paradigms, in the order results are reported.
type paradigm uint8

const (
	cs paradigm = iota
	rev
	cod
	ma
	nParadigms
)

var paradigmNames = [nParadigms]string{"cs", "rev", "cod", "ma"}

// Kernel workload inputs. 80% of operations are small and 20% large, so the
// median sits in the small mode and p90 in the large one. The unit pool is
// smaller than the server's 128-entry program cache (internal/core/exec.go),
// so repeated units share decode work.
const (
	poolSize       = 32
	largeUnits     = 8 // of poolSize
	smallUnitBytes = 1 << 10
	largeUnitBytes = 64 << 10
	smallCallBytes = 64
	largeCallBytes = 16 << 10
	// blockRounds rounds of the four paradigms make one block; each paradigm
	// is large in exactly one round of every block.
	blockRounds = 5
	// opsPerRep is one timed repetition of the closed loop.
	opsPerRep = 1000
	// opTimeout bounds one operation, in the workload's own time.
	opTimeout = 10 * time.Second
)

// op is one closed-loop operation.
type op struct {
	p     paradigm
	large bool
	unit  int   // pool index
	arg   int64 // REV iterations
}

// genOps draws n operations from seed. Every block of 4*blockRounds
// operations cycles the paradigms in seeded orders and holds exactly one
// large operation per paradigm, so the mix, and the work, barely vary with
// the seed while the order does.
func genOps(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n+4*blockRounds)
	for len(ops) < n {
		var largeRound [nParadigms]int
		for p := range largeRound {
			largeRound[p] = rng.Intn(blockRounds)
		}
		for round := 0; round < blockRounds; round++ {
			for _, p := range rng.Perm(int(nParadigms)) {
				o := op{p: paradigm(p), large: largeRound[p] == round}
				if o.large {
					o.unit = poolSize - largeUnits + rng.Intn(largeUnits)
					o.arg = 500 + rng.Int63n(500)
				} else {
					o.unit = rng.Intn(poolSize - largeUnits)
					o.arg = 50 + rng.Int63n(50)
				}
				ops = append(ops, o)
			}
		}
	}
	return ops[:n]
}

// loopBody folds iterations into an accumulator: local 0 counts down, local
// 1 accumulates, seeded with a per-unit constant so every unit's code is
// distinct.
const loopBody = `
loop:
	load 0
	jz done
	load 1
	push 31
	mul
	load 0
	add
	push 1000003
	mod
	store 1
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
`

// componentSource is the REV/COD unit: main(n) runs the loop n times.
func componentSource(k int) string {
	return fmt.Sprintf(".entry main\nmain:\n\tstore 0\n\tpush %d\n\tstore 1\n%s\tload 1\n\thalt\n", k, loopBody)
}

// agentSource is the MA unit: migrate to itinerary slot 0 (the server), run
// the loop there, carry the result home (slot 1) and halt with it.
func agentSource(k int, iters int64) string {
	return fmt.Sprintf(`.globals 1
.entry main
main:
	push 0
	host a_itin_select
	pop
	host a_migrate
	jz fail
	push %d
	store 0
	push %d
	store 1
%s	load 1
	gstore 0
	push 1
	host a_itin_select
	pop
	host a_migrate
	jz fail
	gload 0
	halt
fail:
	push -1
	halt
`, iters, k, loopBody)
}

// agentIters is the server-side work of an MA unit, fixed per size class
// because a spawned agent takes no arguments.
func agentIters(large bool) int64 {
	if large {
		return 750
	}
	return 75
}

// kernelInputs are everything the kernel and wire workloads ship, generated
// from the seed and signed once, outside any timing.
type kernelInputs struct {
	id         *security.Identity
	components [poolSize]*lmu.Unit
	packed     [poolSize][]byte // the published bytes COD must return
	agents     [poolSize]*lmu.Unit
	agentWant  [poolSize]int64
	calls      [2][]byte // CS requests: [small, large]
	ops        []op
	revWant    []int64 // expected REV result per op
}

func unitBytes(large bool) int {
	if large {
		return largeUnitBytes
	}
	return smallUnitBytes
}

func callBytes(large bool) int {
	if large {
		return largeCallBytes
	}
	return smallCallBytes
}

// newKernelInputs builds the unit pool, the CS requests and the operation
// sequence for seed, with every expected result computed by a local VM run.
func newKernelInputs(seed int64) (*kernelInputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &kernelInputs{id: security.MustNewIdentity("publisher")}
	for i := 0; i < poolSize; i++ {
		large := i >= poolSize-largeUnits
		k := 1 + rng.Intn(1000000)
		blob := make([]byte, unitBytes(large))
		rng.Read(blob)
		prog, err := vm.Assemble(componentSource(k))
		if err != nil {
			return nil, err
		}
		u := &lmu.Unit{
			Manifest: lmu.Manifest{Name: fmt.Sprintf("unit%02d", i), Version: "1.0", Kind: lmu.KindComponent, Publisher: "publisher"},
			Code:     prog.Encode(),
			Data:     map[string][]byte{"blob": blob},
		}
		in.id.Sign(u)
		in.components[i], in.packed[i] = u, u.Pack()

		aprog, err := vm.Assemble(agentSource(k, agentIters(large)))
		if err != nil {
			return nil, err
		}
		payload := make([]byte, unitBytes(large))
		rng.Read(payload)
		a := &lmu.Unit{
			Manifest: lmu.Manifest{Name: fmt.Sprintf("agent%02d", i), Version: "1.0", Kind: lmu.KindAgent, Publisher: "publisher"},
			Code:     aprog.Encode(),
			Data:     map[string][]byte{agent.KeyPayload: payload},
		}
		in.id.SignCode(a)
		in.agents[i] = a
		want, err := localRun(u.Code, agentIters(large))
		if err != nil {
			return nil, err
		}
		in.agentWant[i] = want
	}
	for c, large := range []bool{false, true} {
		b := wire.NewBuffer(callBytes(large))
		b.PutUint(uint64(callBytes(large)))
		req := append([]byte(nil), b.Bytes()...)
		in.calls[c] = append(req, make([]byte, callBytes(large)-len(req))...)
	}
	in.ops = genOps(seed, opsPerRep)
	in.revWant = make([]int64, len(in.ops))
	for i, o := range in.ops {
		if o.p == rev {
			want, err := localRun(in.components[o.unit].Code, o.arg)
			if err != nil {
				return nil, err
			}
			in.revWant[i] = want
		}
	}
	return in, nil
}

// localRun runs a component's main(arg) on a bare local VM: the reference
// every remote result is checked against.
func localRun(code []byte, arg int64) (int64, error) {
	prog, err := vm.DecodeProgram(code)
	if err != nil {
		return 0, err
	}
	m, err := vm.New(prog, vm.NewHostTable(), 1e6)
	if err != nil {
		return 0, err
	}
	if err := m.SetEntry("main", arg); err != nil {
		return 0, err
	}
	if err := m.Run(); err != nil {
		return 0, err
	}
	st := m.Stack()
	if len(st) != 1 {
		return 0, fmt.Errorf("local run left %d values", len(st))
	}
	return st[0], nil
}

// echoService answers a CS request with as many bytes as its first field
// asks for.
func echoService() core.ServiceFunc {
	reply := make([]byte, largeCallBytes)
	return func(_ string, args [][]byte) ([][]byte, error) {
		if len(args) != 1 {
			return nil, errors.New("echo: want one argument")
		}
		r := wire.NewReader(args[0])
		n := r.Uint()
		if r.Err() != nil || n > uint64(len(reply)) {
			return nil, errors.New("echo: bad length")
		}
		return [][]byte{reply[:n]}, nil
	}
}

// agentCopy is a fresh instance of a pool agent travelling to server and
// back home to client: the platform writes bookkeeping into the data space
// and state into the unit, so every spawn needs its own.
func (in *kernelInputs) agentCopy(i int, server, client string) *lmu.Unit {
	base := in.agents[i]
	return &lmu.Unit{
		Manifest: base.Manifest,
		Code:     base.Code,
		Data: map[string][]byte{
			agent.KeyPayload:   base.Data[agent.KeyPayload],
			agent.KeyItinerary: agent.EncodeItinerary([]string{server, client}),
		},
		Sig: base.Sig,
	}
}

// Output checks, one per paradigm.

func checkCall(o op, results [][]byte) error {
	if len(results) != 1 || len(results[0]) != callBytes(o.large) {
		return fmt.Errorf("cs: reply of %d frames, want one of %d bytes", len(results), callBytes(o.large))
	}
	return nil
}

func checkEval(in *kernelInputs, i int, stack []int64) error {
	if len(stack) != 1 || stack[0] != in.revWant[i] {
		return fmt.Errorf("rev: stack %v, local run gives [%d]", stack, in.revWant[i])
	}
	return nil
}

func checkFetch(in *kernelInputs, o op, u *lmu.Unit) error {
	if !bytes.Equal(u.Pack(), in.packed[o.unit]) {
		return fmt.Errorf("cod: fetched %s differs from the published unit", u.Manifest.Name)
	}
	return nil
}

func checkAgent(in *kernelInputs, o op, rec agent.Record) error {
	if rec.Status != agent.StatusCompleted || !slices.Equal(rec.Stack, []int64{in.agentWant[o.unit]}) {
		return fmt.Errorf("ma: agent ended with status %d stack %v (%s), want [%d]",
			rec.Status, rec.Stack, rec.Detail, in.agentWant[o.unit])
	}
	return nil
}

// opFunc runs operation i of in to completion and returns its latency.
type opFunc func(in *kernelInputs, i int, o op) (time.Duration, error)

// warmUp runs every unit of the pool once per paradigm, so the timed loop
// starts with the program caches filled, as a serving host's are.
func warmUp(in *kernelInputs, do opFunc) error {
	w := *in
	w.ops, w.revWant = nil, nil
	for u := 0; u < poolSize; u++ {
		large := u >= poolSize-largeUnits
		want, err := localRun(in.components[u].Code, 1)
		if err != nil {
			return err
		}
		w.ops = append(w.ops, op{p: cs, large: large}, op{p: rev, large: large, unit: u, arg: 1},
			op{p: cod, large: large, unit: u}, op{p: ma, large: large, unit: u})
		w.revWant = append(w.revWant, 0, want, 0, 0)
	}
	for i, o := range w.ops {
		if _, err := do(&w, i, o); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// timeOps is the timed phase of a closed loop: every operation of in, one
// at a time, each under its own root span when traced. after, if set, runs
// after each operation, outside its latency.
func timeOps(res *repResult, in *kernelInputs, tr *tracer, do opFunc, after func()) {
	runtime.GC() // as in the crowd workloads: start timing from a collected heap
	m0 := readMem()
	c0 := cpuTime()
	t0 := time.Now()
	for i, o := range in.ops {
		root := int32(-1)
		if tr != nil {
			root = tr.beginRoot("op."+paradigmNames[o.p], int32(i))
		}
		d, err := do(in, i, o)
		if tr != nil {
			tr.endRoot(root)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		} else {
			res.byParadigm[o.p] = append(res.byParadigm[o.p], float64(d)/1e3)
		}
		if after != nil {
			after()
		}
	}
	res.runS = time.Since(t0).Seconds()
	res.cpuS = (cpuTime() - c0).Seconds()
	res.mallocs, res.gcCycles, res.gcPauseS = readMem().diff(m0)
	res.heapMB = liveHeapMB()
	res.attempted = len(in.ops)
	res.ops = res.attempted - res.failed
}
