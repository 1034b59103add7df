package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"logmob/internal/lmu"
	"logmob/internal/netsim"
	"logmob/internal/transport"
	"logmob/internal/vm"
)

// TestFailedSendContract pins what a request to an unreachable peer
// reports, for each of the five request kinds: the error text is exactly
// the text the kernel has always formatted, the transport's
// *netsim.ErrUnreachable is still reachable through errors.As, the
// callback fires once, synchronously, and no timeout timer is left in the
// simulator's queue.
func TestFailedSendContract(t *testing.T) {
	w := newWorld(t)
	client := w.addHost(t, "client", nil)
	w.addHost(t, "server", nil)
	w.net.CutLink("client", "server")
	unreachable := &netsim.ErrUnreachable{From: "client", To: "server"}
	unit := w.signedProgram("lib/add", addSrc)
	agentUnit := &lmu.Unit{
		Manifest: lmu.Manifest{Name: "agent/a", Version: "1.0", Kind: lmu.KindAgent, Publisher: w.id.Name},
		Code:     vm.MustAssemble(addSrc).Encode(),
	}
	w.id.Sign(agentUnit)

	cases := []struct {
		name string
		want error
		send func(cb func(error))
	}{
		{"call", fmt.Errorf("core: call %s at %s: %w", "echo", "server", unreachable), func(cb func(error)) {
			client.Call("server", "echo", [][]byte{[]byte("x")}, func(_ [][]byte, err error) { cb(err) })
		}},
		{"eval", fmt.Errorf("core: eval at %s: %w", "server", unreachable), func(cb func(error)) {
			client.Eval("server", unit, "main", []int64{1, 2}, func(_ []int64, err error) { cb(err) })
		}},
		{"fetch", fmt.Errorf("core: fetch %s from %s: %w", "lib/add", "server", unreachable), func(cb func(error)) {
			client.Fetch("server", "lib/add", "1.0", func(_ *lmu.Unit, err error) { cb(err) })
		}},
		{"agent", fmt.Errorf("core: send agent to %s: %w", "server", unreachable), func(cb func(error)) {
			client.SendAgent("server", agentUnit, cb)
		}},
		{"publish", fmt.Errorf("core: publish to %s: %w", "server", unreachable), func(cb func(error)) {
			client.PublishTo("server", unit, cb)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pending := w.sim.Pending()
			calls := 0
			var got error
			tc.send(func(err error) {
				calls++
				got = err
			})
			if calls != 1 {
				t.Fatalf("callback fired %d times synchronously, want 1", calls)
			}
			if got == nil {
				t.Fatal("send to an unreachable peer succeeded")
			}
			if got.Error() != tc.want.Error() {
				t.Errorf("error text\n got %q\nwant %q", got.Error(), tc.want.Error())
			}
			var ue *netsim.ErrUnreachable
			if !errors.As(got, &ue) || ue.From != "client" || ue.To != "server" {
				t.Errorf("errors.As(*netsim.ErrUnreachable) = %v, %+v", errors.As(got, &ue), ue)
			}
			if p := w.sim.Pending(); p != pending {
				t.Errorf("Sim.Pending() = %d after a failed send, want %d (a timer was left armed)", p, pending)
			}
			w.sim.RunUntilIdle(0)
			if calls != 1 {
				t.Errorf("callback fired %d times after draining the simulator, want 1", calls)
			}
		})
	}
	if st := client.Stats(); st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0", st.Timeouts)
	}
}

// replyFirstEndpoint holds Send's return until the request's reply has
// been handled, so the reply always lands before the kernel arms the
// request's timeout.
type replyFirstEndpoint struct {
	transport.Endpoint
	replied chan struct{}
}

func (e *replyFirstEndpoint) Send(to string, payload []byte) error {
	if err := e.Endpoint.Send(to, payload); err != nil {
		return err
	}
	select {
	case <-e.replied:
	case <-time.After(5 * time.Second):
	}
	return nil
}

// countingScheduler counts the timers armed through it.
type countingScheduler struct {
	transport.Scheduler
	armed atomic.Int64
}

func (s *countingScheduler) After(d time.Duration, fn func()) func() {
	s.armed.Add(1)
	return s.Scheduler.After(d, fn)
}

// TestTCPReplyBeforeArm covers the race the request path guards: over TCP a
// reply can be resolved on a reader goroutine before the sender arms the
// request's timeout. The callback must fire once with the reply and no
// timer may be armed for the finished request. Run it under -race.
func TestTCPReplyBeforeArm(t *testing.T) {
	server := newTCPHost(t, nil, nil)
	server.RegisterService("echo", func(_ string, args [][]byte) ([][]byte, error) { return args, nil })

	tcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tcp.Close()
	ep := &replyFirstEndpoint{Endpoint: tcp, replied: make(chan struct{}, 1)}
	sched := &countingScheduler{Scheduler: transport.NewWallScheduler()}
	client, err := NewHost(Config{Endpoint: ep, Scheduler: sched, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer client.Close()

	var calls atomic.Int64
	// Room for a wrong second callback, so it cannot block a goroutine.
	done := make(chan error, 2)
	// Call returns only after request has run arm: Send blocks until the
	// callback has fired.
	client.Call(server.Addr(), "echo", [][]byte{[]byte("hi")}, func(res [][]byte, err error) {
		calls.Add(1)
		if err == nil && (len(res) != 1 || string(res[0]) != "hi") {
			err = fmt.Errorf("echo returned %q", res)
		}
		done <- err
		ep.replied <- struct{}{}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("no reply")
	}
	if n := sched.armed.Load(); n != 0 {
		t.Errorf("%d timers armed for a request already answered", n)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("callback fired %d times, want 1", n)
	}
	if st := client.Stats(); st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0", st.Timeouts)
	}
}
