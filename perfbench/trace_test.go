package main

import (
	"testing"

	"logmob/internal/transport"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 40},    // 1: child
		{parent: 0, start: 30, end: 60},    // 2: child overlapping 1
		{parent: 0, start: 90, end: 120},   // 3: child outliving the root
		{parent: 1, start: 15, end: 20},    // 4: grandchild, counted against 1 only
		{parent: -1, start: 200, end: 210}, // 5: childless root
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

// fakeEndpoint delivers every Send straight back to its own handler, so a
// receive span and the sends made while handling it can be checked.
type fakeEndpoint struct {
	transport.Endpoint
	h transport.Handler
}

func (f *fakeEndpoint) SetHandler(h transport.Handler) { f.h = h }
func (f *fakeEndpoint) Send(string, []byte) error      { return nil }
func (f *fakeEndpoint) deliver(payload []byte)         { f.h("peer", payload) }

func TestEndpointSpansParentSendsToTheirReceive(t *testing.T) {
	tr := newTracer()
	fake := &fakeEndpoint{}
	ep := newTracedEndpoint(fake, tr, "netsim.send")
	ep.SetHandler(func(string, []byte) { _ = ep.Send("peer", []byte{1}) })

	root := tr.beginRoot("op.cs", 0)
	_ = ep.Send("peer", []byte{transport.ChanKernel, 1}) // the request
	fake.deliver([]byte{transport.ChanKernel, 2, 0})     // the reply, answered inside
	tr.endRoot(root)

	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[tr.names[s.name]+map[bool]string{true: ".inner"}[s.parent > 0]] = s
	}
	if s := byName["netsim.send"]; s.parent != root || s.op != 0 {
		t.Errorf("top-level send: parent %d op %d, want root %d op 0", s.parent, s.op, root)
	}
	recv, ok := byName["recv.kernel.reply"]
	if !ok || recv.parent != root {
		t.Fatalf("receive span %+v (found %v), want a child of the root", recv, ok)
	}
	inner := byName["netsim.send.inner"]
	if tr.names[inner.name] != "netsim.send" || tr.spans[inner.parent].name != recv.name {
		t.Errorf("send while handling: parent %d, want the receive span", inner.parent)
	}
	if ep.open != -1 {
		t.Errorf("open receive span %d left after delivery", ep.open)
	}
	st := tr.aggregate()
	if st.count["netsim.send"] != 2 || st.count["recv.kernel.reply"] != 1 {
		t.Errorf("counts %v", st.count)
	}
}

func TestRecvSpanNames(t *testing.T) {
	for payload, want := range map[string]string{
		"":             "recv.empty",
		"\x01\x01":     "recv.kernel.call",
		"\x01\x03":     "recv.kernel.eval",
		"\x01\x05":     "recv.kernel.fetch",
		"\x01\x07":     "recv.kernel.agent",
		"\x01\x08":     "recv.kernel.reply",
		"\x01\x63":     "recv.kernel.other",
		"\x03anything": "recv.beacon",
		"\x04":         "recv.other",
	} {
		if got := recvSpanName([]byte(payload)); got != want {
			t.Errorf("recvSpanName(%q) = %s, want %s", payload, got, want)
		}
	}
}
