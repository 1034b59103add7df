package discovery

import (
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/wire"
)

// honestAd is the advertisement each fuzz run checks still gets through
// after the hostile bytes.
var honestAd = Ad{Service: "print", Provider: "honest", TTL: time.Minute}

// checkHonest fails unless ads holds honestAd's provider.
func checkHonest(t *testing.T, ads []Ad) {
	t.Helper()
	for _, ad := range ads {
		if ad.Provider == honestAd.Provider {
			return
		}
	}
	t.Fatalf("honest ad not found after hostile bytes: %v", ads)
}

// checkLeases fails on a cached lease with an empty service or a broken
// index.
func checkLeases(t *testing.T, tab *adTable) {
	t.Helper()
	for _, l := range tab.leases {
		if l.service == "" {
			t.Fatalf("lease from %q cached with an empty service", l.provider)
		}
	}
	checkIndex(t, tab)
}

// FuzzBeaconHandle feeds a beacon arbitrary frames from a neighbour. It
// must not panic or cache a lease without a service, and an honest
// neighbour's beacon heard afterwards must still be cached and found.
func FuzzBeaconHandle(f *testing.F) {
	valid := beaconFrame(Ad{Service: "cinema/tickets", Provider: "mallory", Attrs: map[string]string{"city": "london"}, TTL: time.Minute})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'x'})
	flood, _ := floodFrame()
	f.Add(flood)
	honest := beaconFrame(honestAd)
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := newRig(t)
		b := NewBeacon(r.addNode(t, "listener", netsim.Position{}, netsim.AdHoc), r.sim, 5*time.Second)
		b.handle("mallory", payload)
		checkLeases(t, &b.cache)
		b.handle(honestAd.Provider, honest)
		checkLeases(t, &b.cache)
		b.Find(Query{Service: honestAd.Service}, func(ads []Ad) { checkHonest(t, ads) })
	})
}

// FuzzLookupServerHandle feeds a lookup server arbitrary messages from a
// client, with the same requirements as FuzzBeaconHandle: no panic, no
// lease without a service, and an honest registration afterwards is found.
func FuzzLookupServerHandle(f *testing.F) {
	msg := func(kind byte, fill func(*wire.Buffer)) []byte {
		var b wire.Buffer
		b.PutByte(kind)
		fill(&b)
		return b.Bytes()
	}
	register := msg(msgRegister, func(b *wire.Buffer) {
		ad := Ad{Service: "cinema/tickets", Provider: "mallory", TTL: time.Minute}
		ad.encode(b)
	})
	f.Add(register)
	f.Add(register[:len(register)-3])
	f.Add(msg(msgQuery, func(b *wire.Buffer) { b.PutUint(1); b.PutString("print"); b.PutUint(1 << 40) }))
	flood, _ := floodFrame()
	f.Add(msg(msgRegister, func(b *wire.Buffer) { b.PutRaw(flood) }))
	f.Add(msg(msgUnregister, func(b *wire.Buffer) { b.PutString("mallory"); b.PutString("cinema/tickets") }))
	honest := msg(msgRegister, func(b *wire.Buffer) { honestAd.encode(b) })
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := newRig(t)
		s := NewLookupServer(r.addNode(t, "lookup", netsim.Position{}, netsim.LAN), r.sim)
		s.handle("mallory", payload)
		checkLeases(t, &s.table)
		s.handle(honestAd.Provider, honest)
		checkLeases(t, &s.table)
		checkHonest(t, s.table.find(Query{Service: honestAd.Service}))
	})
}
