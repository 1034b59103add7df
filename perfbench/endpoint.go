package main

import (
	"logmob/internal/transport"
)

// Kernel protocol message types, as the first byte of a kernel-channel
// payload (internal/core/proto.go). Only used to name receive spans.
var kernelMsgNames = [...]string{
	1: "call", 2: "reply", 3: "eval", 4: "reply", 5: "fetch", 6: "reply",
	7: "agent", 8: "reply", 9: "user", 10: "publish", 11: "reply",
}

// recvSpanName names the receive span of one mux frame by its channel byte
// and, on the kernel channel, by the kernel message type.
func recvSpanName(payload []byte) string {
	if len(payload) == 0 {
		return "recv.empty"
	}
	switch payload[0] {
	case transport.ChanKernel:
		if len(payload) > 1 && int(payload[1]) < len(kernelMsgNames) && kernelMsgNames[payload[1]] != "" {
			return "recv.kernel." + kernelMsgNames[payload[1]]
		}
		return "recv.kernel.other"
	case transport.ChanBeacon:
		return "recv.beacon"
	default:
		return "recv.other"
	}
}

// tracedEndpoint times one host's transport from outside: every Send and
// Broadcast, and every delivery through the handler the host installs. All
// other methods pass straight through the embedded Endpoint.
type tracedEndpoint struct {
	transport.Endpoint
	tr       *tracer
	sendName string // "netsim.send" or "tcp.send"
	// open is the receive span in progress on this endpoint, -1 when none;
	// guarded by tr.mu. Deliveries to one endpoint never nest.
	open int32
}

func newTracedEndpoint(ep transport.Endpoint, tr *tracer, sendName string) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: ep, tr: tr, sendName: sendName, open: -1}
}

// Send implements transport.Endpoint.
func (e *tracedEndpoint) Send(to string, payload []byte) error {
	i := e.tr.begin(e.sendName, &e.open, false)
	err := e.Endpoint.Send(to, payload)
	e.tr.end(i)
	return err
}

// Broadcast implements transport.Endpoint.
func (e *tracedEndpoint) Broadcast(payload []byte) int {
	i := e.tr.begin("netsim.broadcast", &e.open, false)
	n := e.Endpoint.Broadcast(payload)
	e.tr.end(i)
	return n
}

// SetHandler implements transport.Endpoint, wrapping h in a receive span.
func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	if h == nil {
		e.Endpoint.SetHandler(nil)
		return
	}
	e.Endpoint.SetHandler(func(from string, payload []byte) {
		i := e.tr.begin(recvSpanName(payload), &e.open, true)
		h(from, payload)
		e.tr.endRecv(i, &e.open)
	})
}
