package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"logmob/internal/wire"
)

// Channel IDs used across logmob. Defined here so every subsystem agrees.
const (
	// ChanKernel carries the middleware kernel protocol (RPC, eval, fetch,
	// agent transfer).
	ChanKernel byte = 1
	// ChanLookup carries the centralised lookup-service protocol.
	ChanLookup byte = 2
	// ChanBeacon carries decentralised discovery beacons.
	ChanBeacon byte = 3
	// ChanCluster carries the real-wire bootstrap/join membership protocol
	// (internal/cluster).
	ChanCluster byte = 4
)

// Mux multiplexes several logical channels over one Endpoint by prefixing
// each payload with a channel ID byte. Each channel behaves as an Endpoint
// of its own.
type Mux struct {
	ep Endpoint
	// handlers is indexed by channel ID and only as long as the highest
	// installed ID, so a host with a few low channels pays a few words, not
	// a 256-entry table. It is copy-on-write: dispatch loads it without a
	// lock, SetHandler publishes a fresh slice under mu.
	handlers atomic.Pointer[[]Handler]
	mu       sync.Mutex // serializes handler installs
}

// NewMux wraps ep and installs its dispatch handler.
func NewMux(ep Endpoint) *Mux {
	m := &Mux{ep: ep}
	ep.SetHandler(m.dispatch)
	return m
}

func (m *Mux) dispatch(from string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	hs := m.handlers.Load()
	if hs == nil || int(payload[0]) >= len(*hs) {
		return
	}
	if h := (*hs)[payload[0]]; h != nil {
		h(from, payload[1:])
	}
}

// setHandler installs (or, with nil, removes) channel id's handler.
func (m *Mux) setHandler(id byte, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var old []Handler
	if p := m.handlers.Load(); p != nil {
		old = *p
	}
	if h != nil && int(id) < len(old) && old[id] != nil {
		panic(fmt.Sprintf("transport: handler for mux channel %d installed twice", id))
	}
	hs := make([]Handler, max(len(old), int(id)+1))
	copy(hs, old)
	hs[id] = h
	m.handlers.Store(&hs)
}

// Channel returns the Endpoint view of one channel.
func (m *Mux) Channel(id byte) Endpoint {
	return &muxChannel{mux: m, id: id}
}

// Underlying returns the wrapped Endpoint.
func (m *Mux) Underlying() Endpoint { return m.ep }

type muxChannel struct {
	mux *Mux
	id  byte
}

var _ Endpoint = (*muxChannel)(nil)

func (c *muxChannel) Addr() string { return c.mux.ep.Addr() }

// Send frames the payload in a pooled buffer: no Endpoint implementation
// retains the frame past the call (netsim copies, TCP writes synchronously,
// Reliable re-frames into its own buffer), so it can be recycled on return.
func (c *muxChannel) Send(to string, payload []byte) error {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(c.id)
	b.PutRaw(payload)
	return c.mux.ep.Send(to, b.Bytes())
}

func (c *muxChannel) Broadcast(payload []byte) int {
	b := wire.GetBuffer()
	defer wire.PutBuffer(b)
	b.PutByte(c.id)
	b.PutRaw(payload)
	return c.mux.ep.Broadcast(b.Bytes())
}

func (c *muxChannel) Neighbors() []string { return c.mux.ep.Neighbors() }

func (c *muxChannel) SetHandler(h Handler) { c.mux.setHandler(c.id, h) }

// Close detaches the channel's handler; the underlying endpoint stays open.
func (c *muxChannel) Close() error {
	c.SetHandler(nil)
	return nil
}
