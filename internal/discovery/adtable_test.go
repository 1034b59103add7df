package discovery

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"logmob/internal/netsim"
	"logmob/internal/wire"
)

// floodFrame is one 64 KB beacon frame advertising as many distinct
// services as fit, the worst case for an ingest that scans its cache.
func floodFrame() ([]byte, int) {
	const limit = 64 << 10
	var body wire.Buffer
	n := 0
	for {
		ad := Ad{Service: fmt.Sprintf("flood/%05d", n), Provider: "mallory"}
		mark := body.Len()
		ad.encode(&body)
		if body.Len()+3 > limit { // 3 bytes hold the count
			var b wire.Buffer
			b.PutUint(uint64(n))
			b.PutRaw(body.Bytes()[:mark])
			return b.Bytes(), n
		}
		n++
	}
}

// TestBeaconCacheBoundedWithoutQueries pins the pre-growth prune: a
// listener that hears ten new passers-by every interval, each advertising
// for three intervals, and is never queried keeps only the leases live at
// once. A cache that pruned only on queries would hold all 1,000.
func TestBeaconCacheBoundedWithoutQueries(t *testing.T) {
	const ivl = 5 * time.Second
	r := newRig(t)
	b := NewBeacon(r.addNode(t, "listener", netsim.Position{}, netsim.AdHoc), r.sim, ivl)
	for k := 0; k < 100; k++ {
		for j := 0; j < 10; j++ {
			p := fmt.Sprintf("passer-%03d-%d", k, j)
			b.handle(p, beaconFrame(Ad{Service: "presence", Provider: p, TTL: 3 * ivl}))
		}
		r.sim.RunFor(ivl)
	}
	if c := cap(b.cache.leases); c > adIndexMin {
		t.Fatalf("unqueried cache grew to %d leases, want at most %d", c, adIndexMin)
	}
	// Only the last two intervals' passers are still live.
	if got := b.CacheSize(); got != 20 {
		t.Fatalf("cache holds %d live leases, want 20", got)
	}
}

// TestBeaconFloodFrameIndexed pins the hash index: a frame of thousands of
// distinct services takes the cache past adIndexMin, and every index
// lookup, hit or miss, agrees with a full scan.
func TestBeaconFloodFrameIndexed(t *testing.T) {
	r := newRig(t)
	b := NewBeacon(r.addNode(t, "listener", netsim.Position{}, netsim.AdHoc), r.sim, 5*time.Second)
	frame, n := floodFrame()
	b.handle("mallory", frame)
	tab := &b.cache
	if len(tab.leases) != n || tab.index == nil {
		t.Fatalf("flood cached %d of %d leases, index built: %v", len(tab.leases), n, tab.index != nil)
	}
	scan := func(k adKey) int {
		for i := range tab.leases {
			if tab.leases[i].adKey == k {
				return i
			}
		}
		return -1
	}
	keys := []adKey{{"mallory", "absent"}, {"honest", "flood/00000"}}
	for i := range tab.leases {
		keys = append(keys, tab.leases[i].adKey)
	}
	for _, k := range keys {
		if got, want := tab.at(k), scan(k); got != want {
			t.Fatalf("at(%v) = %d, full scan %d", k, got, want)
		}
	}
	checkIndex(t, tab)
}

// TestAdTableProvidersAllocFree pins that counting providers, which sensing
// does every tick, allocates nothing on either side of adIndexMin once
// warm.
func TestAdTableProvidersAllocFree(t *testing.T) {
	services := []string{"print", "scan", "fax"}
	for _, n := range []int{adIndexMin / 2, 4 * adIndexMin} {
		tab := adTable{now: func() time.Duration { return 0 }}
		for i := 0; i < n; i++ {
			tab.put(Ad{Service: services[i%len(services)], Provider: fmt.Sprintf("p%03d", i/2)})
		}
		want := (n + 1) / 2
		if got := tab.providers(); got != want {
			t.Fatalf("%d leases: providers = %d, want %d", n, got, want)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if tab.providers() != want {
				t.Fatal("providers changed between calls")
			}
		})
		if allocs != 0 {
			t.Errorf("%d leases: providers allocates %.1f times per call, want 0", n, allocs)
		}
	}
}

// TestBeaconFrameInServiceOrder pins the own-ad set: whatever order ads
// are advertised, replaced and withdrawn in, the beacon frame lists them
// once each, sorted by service, with the latest version of each.
func TestBeaconFrameInServiceOrder(t *testing.T) {
	r := newRig(t)
	b := NewBeacon(r.addNode(t, "a", netsim.Position{}, netsim.AdHoc), r.sim, time.Second)
	for _, s := range []string{"scan", "print", "fax", "copy"} {
		b.Advertise(Ad{Service: s})
	}
	b.Advertise(Ad{Service: "fax", Attrs: map[string]string{"v": "2"}})
	b.Withdraw("copy")
	b.Withdraw("absent")
	b.tickOnce()
	rd := wire.NewReader(b.frame)
	var got []string
	for n := rd.Uint(); n > 0; n-- {
		ad := decodeAd(rd, "a")
		if ad.Service == "fax" && ad.Attrs["v"] != "2" {
			t.Errorf("replaced ad not updated: %+v", ad)
		}
		got = append(got, ad.Service)
	}
	if want := []string{"fax", "print", "scan"}; !slices.Equal(got, want) || rd.ExpectEOF() != nil {
		t.Fatalf("frame lists %v, want %v", got, want)
	}
}
