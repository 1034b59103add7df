package vm

import (
	"sort"
	"testing"
)

// fuzzFuel bounds every fuzzed run: a hostile program or snapshot may loop,
// recurse or push, but only for this many instructions.
const fuzzFuel = 20_000

// fuzzHost grants the capabilities the seed programs import: a trapping
// "migrate" (the agent hop point) and a pure "double".
func fuzzHost() *HostTable {
	host := NewHostTable()
	host.Register(HostFunc{Name: "migrate", Fn: func(*Machine, []int64) ([]int64, int64, error) {
		return nil, 1, nil
	}})
	host.Register(HostFunc{Name: "double", Arity: 1, Fn: func(m *Machine, args []int64) ([]int64, int64, error) {
		return m.Ret1(args[0] * 2), 0, nil
	}})
	return host
}

// fuzzSources are the valid programs the fuzzers start from: loops,
// globals, nested calls with locals, host calls and a trap-driven hop loop.
var fuzzSources = []string{
	`
.globals 1
.entry main
main:
	push 5
	gstore 0
loop:
	gload 0
	jz done
	host migrate
	gload 0
	push 1
	sub
	gstore 0
	jmp loop
done:
	gload 0
	halt
`,
	`
.entry main
main:
	push 31
	call inner
	host double
	halt
inner:
	store 3
	host migrate
	load 3
	push 2
	mul
	ret
`,
	`
.entry fact
fact:
	dup
	jz one
	dup
	push 1
	sub
	call fact
	mul
	ret
one:
	pop
	push 1
	ret
`,
}

// runBounded resumes m across traps until it halts, fails or the fuel runs
// out, and checks the fuel bound held.
func runBounded(t *testing.T, m *Machine) {
	for hop := 0; hop < 64; hop++ {
		if err := m.Run(); err != nil || m.Status() != StatusTrapped {
			break
		}
	}
	if m.Steps > fuzzFuel {
		t.Fatalf("ran %d steps on a %d fuel budget", m.Steps, fuzzFuel)
	}
}

// FuzzDecodeProgramRun feeds arbitrary bytes to DecodeProgram, as a peer's
// code unit would arrive, and runs whatever decodes from its first entry
// point under a fuel bound. Any input must give an error or a bounded run,
// never a panic.
func FuzzDecodeProgramRun(f *testing.F) {
	for _, src := range fuzzSources {
		code := MustAssemble(src).Encode()
		f.Add(code)
		f.Add(code[:len(code)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := DecodeProgram(data)
		if err != nil {
			return
		}
		m, err := New(prog, fuzzHost(), fuzzFuel)
		if err != nil {
			return
		}
		entries := make([]string, 0, len(prog.Entries))
		for name := range prog.Entries {
			entries = append(entries, name)
		}
		sort.Strings(entries)
		if len(entries) > 0 {
			if err := m.SetEntry(entries[0], 6); err != nil {
				t.Fatalf("SetEntry(%q) on a decoded entry: %v", entries[0], err)
			}
		}
		runBounded(t, m)
	})
}

// FuzzRestoreRun feeds arbitrary snapshot bytes to Restore, as a migrating
// agent's execution state would arrive, for each seed program, and runs
// what restores under a fuel bound. Any input must give an error or a
// bounded run, never a panic.
func FuzzRestoreRun(f *testing.F) {
	progs := make([]*Program, len(fuzzSources))
	for i, src := range fuzzSources {
		progs[i] = MustAssemble(src)
		m, err := New(progs[i], fuzzHost(), fuzzFuel)
		if err != nil {
			f.Fatal(err)
		}
		for name := range progs[i].Entries {
			if err := m.SetEntry(name, 6); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(uint8(i), m.Snapshot())
		// Snapshots taken at each hop point and at the end.
		for hop := 0; hop < 3; hop++ {
			if err := m.Run(); err != nil {
				break
			}
			f.Add(uint8(i), m.Snapshot())
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, snap []byte) {
		prog := progs[int(which)%len(progs)]
		m, err := Restore(prog, fuzzHost(), fuzzFuel, snap)
		if err != nil {
			return
		}
		runBounded(t, m)
	})
}
