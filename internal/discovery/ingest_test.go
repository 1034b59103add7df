package discovery

import (
	"fmt"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/wire"
)

// beaconFrame encodes the frame a provider beaconing ads broadcasts.
func beaconFrame(ads ...Ad) []byte {
	var b wire.Buffer
	b.PutUint(uint64(len(ads)))
	for i := range ads {
		ads[i].encode(&b)
	}
	return b.Bytes()
}

// TestBeaconIngestAllocFree re-hears more providers than the process-wide
// intern table holds (1024 entries). Each provider advertises under its own
// name, which decodes to the transport sender's string, so a re-heard
// frame must ingest without allocating however many providers the field
// has.
func TestBeaconIngestAllocFree(t *testing.T) {
	const providers = 1500
	r := newRig(t)
	b := NewBeacon(r.addNode(t, "listener", netsim.Position{}, netsim.AdHoc), r.sim, 5*time.Second)
	names := make([]string, providers)
	frames := make([][]byte, providers)
	for i := range names {
		names[i] = fmt.Sprintf("resident-%05d", i)
		frames[i] = beaconFrame(Ad{Service: "presence", Provider: names[i], TTL: time.Minute})
		b.handle(names[i], frames[i])
	}
	if got := b.cache.size(); got != providers {
		t.Fatalf("cache holds %d leases after the first round, want %d", got, providers)
	}
	i := 0
	allocs := testing.AllocsPerRun(3*providers, func() {
		b.handle(names[i%providers], frames[i%providers])
		i++
	})
	if allocs != 0 {
		t.Errorf("re-hearing a known provider allocates %.2f times per frame, want 0", allocs)
	}
	if got := b.cache.size(); got != providers {
		t.Fatalf("cache holds %d leases, want %d", got, providers)
	}
	var found []Ad
	b.Find(Query{Service: "presence"}, func(ads []Ad) { found = ads })
	if len(found) != providers || found[0].Provider != names[0] || found[providers-1].Provider != names[providers-1] {
		t.Fatalf("Find returned %d ads, want %d in provider order", len(found), providers)
	}
}

// TestDecodeAdThirdPartyProvider checks the fallback: an ad whose provider
// is not the sender (a lookup-server reply, a relayed ad) still decodes to
// the provider's own name.
func TestDecodeAdThirdPartyProvider(t *testing.T) {
	var buf wire.Buffer
	ad := Ad{Service: "print", Provider: "printer-7", Attrs: map[string]string{"color": "yes"}, TTL: time.Second}
	ad.encode(&buf)
	got := decodeAd(wire.NewReader(buf.Bytes()), "lookup-server")
	if got.Provider != "printer-7" || got.Service != "print" || got.Attrs["color"] != "yes" || got.TTL != time.Second {
		t.Fatalf("decodeAd = %+v", got)
	}
}

// BenchmarkBeaconIngest measures discovery ad ingest: a listener re-hearing
// the beacons of n neighbours, each advertising one service. One op is one
// round of n frames; n128 runs past adIndexMin on the hash index.
func BenchmarkBeaconIngest(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			r := newRig(b)
			bcn := NewBeacon(r.addNode(b, "listener", netsim.Position{}, netsim.AdHoc), r.sim, 5*time.Second)
			names, frames := make([]string, n), make([][]byte, n)
			for i := range names {
				names[i] = fmt.Sprintf("resident-%05d", i)
				frames[i] = beaconFrame(Ad{Service: "presence", Provider: names[i], TTL: time.Minute})
				bcn.handle(names[i], frames[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i := range frames {
					bcn.handle(names[i], frames[i])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/frame")
		})
	}
}
