package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// mapTable is the map-backed ad store adTable replaced, kept as the
// differential oracle: every lease lives in a map keyed by (provider,
// service), and nothing is pruned until a query runs. dropProvider counts
// only unexpired leases, as Beacon.Evicted does.
type mapTable struct {
	now    func() time.Duration
	leases map[adKey]mapLease
}

type mapLease struct {
	attrs   map[string]string
	ttl     time.Duration
	expires time.Duration
}

func newMapTable(now func() time.Duration) *mapTable {
	return &mapTable{now: now, leases: make(map[adKey]mapLease)}
}

func (t *mapTable) put(ad Ad) {
	ttl := ad.TTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	t.leases[adKey{ad.Provider, ad.Service}] = mapLease{attrs: ad.Attrs, ttl: ad.TTL, expires: t.now() + ttl}
}

func (t *mapTable) drop(provider, service string) {
	delete(t.leases, adKey{provider, service})
}

func (t *mapTable) dropProvider(provider string) int {
	now, n := t.now(), 0
	for key, l := range t.leases {
		if key.provider == provider {
			delete(t.leases, key)
			if l.expires > now {
				n++
			}
		}
	}
	return n
}

func (t *mapTable) find(q Query) []Ad {
	now := t.now()
	var out []Ad
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
			continue
		}
		ad := Ad{Service: key.service, Provider: key.provider, Attrs: l.attrs, TTL: l.ttl}
		if q.Matches(ad) {
			out = append(out, ad)
		}
	}
	sortAds(out)
	return out
}

func (t *mapTable) prune() {
	now := t.now()
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
		}
	}
}

func (t *mapTable) size() int {
	t.prune()
	return len(t.leases)
}

func (t *mapTable) providers() int {
	t.prune()
	seen := make(map[string]bool)
	for key := range t.leases {
		seen[key.provider] = true
	}
	return len(seen)
}

// checkIndex verifies adTable's own invariant: an index exactly when the
// table holds more than adIndexMin leases, pointing at every lease.
func checkIndex(t *testing.T, tab *adTable) {
	t.Helper()
	if (tab.index != nil) != (len(tab.leases) > adIndexMin) {
		t.Fatalf("%d leases with index %v", len(tab.leases), tab.index != nil)
	}
	if tab.index == nil {
		return
	}
	if len(tab.index) != len(tab.leases) {
		t.Fatalf("index holds %d keys for %d leases", len(tab.index), len(tab.leases))
	}
	for i, l := range tab.leases {
		if j, ok := tab.index[adKey{l.provider, l.service}]; !ok || int(j) != i {
			t.Fatalf("lease %d (%s, %s) indexed at %d, %v", i, l.provider, l.service, j, ok)
		}
	}
}

// TestAdTableMatchesMapOracle runs seeded random sequences of every table
// operation against adTable and the map oracle under one clock that jumps
// forward. Growth phases favour puts with long leases and carry the table
// past adIndexMin; shrink phases favour drops and expiry and bring it back
// below, so both the scan and the index path answer. Every result must be
// equal.
func TestAdTableMatchesMapOracle(t *testing.T) {
	const providers, services = 24, 8
	names := make([]string, providers)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	svcs := make([]string, services)
	for i := range svcs {
		svcs[i] = fmt.Sprintf("svc/%d", i)
	}
	attrs := []map[string]string{nil, {"floor": "1"}, {"floor": "2", "color": "yes"}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var now time.Duration
		clock := func() time.Duration { return now }
		got, want := &adTable{now: clock}, newMapTable(clock)
		crossings, indexed := 0, false
		for step := 0; step < 3000; step++ {
			grow := step/300%2 == 0
			p, s := names[rng.Intn(providers)], svcs[rng.Intn(services)]
			switch op := rng.Intn(10); {
			case op < 5 && grow, op < 2:
				ttl := time.Duration(rng.Intn(20)) * time.Second
				if grow {
					ttl += time.Minute
				}
				ad := Ad{Service: s, Provider: p, Attrs: attrs[rng.Intn(len(attrs))], TTL: ttl}
				got.put(ad)
				want.put(ad)
			case op < 5:
				got.drop(p, s)
				want.drop(p, s)
			case op == 5:
				if g, w := got.dropProvider(p), want.dropProvider(p); g != w {
					t.Fatalf("seed %d step %d: dropProvider(%s) = %d, oracle %d", seed, step, p, g, w)
				}
			case op == 6:
				q := Query{Attrs: attrs[rng.Intn(len(attrs))]}
				if rng.Intn(3) > 0 {
					q.Service = s
				}
				if g, w := got.find(q), want.find(q); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: find(%+v) = %v, oracle %v", seed, step, q, g, w)
				}
			case op == 7:
				if g, w := got.size(), want.size(); g != w {
					t.Fatalf("seed %d step %d: size = %d, oracle %d", seed, step, g, w)
				}
			case op == 8:
				if g, w := got.providers(), want.providers(); g != w {
					t.Fatalf("seed %d step %d: providers = %d, oracle %d", seed, step, g, w)
				}
			default:
				now += time.Duration(rng.Intn(4)) * time.Second
				if !grow && rng.Intn(10) == 0 {
					now += 2 * time.Minute
				}
			}
			checkIndex(t, got)
			if (got.index != nil) != indexed {
				indexed = !indexed
				crossings++
			}
		}
		if crossings < 2 {
			t.Errorf("seed %d crossed adIndexMin %d times, want both directions", seed, crossings)
		}
		if g, w := got.find(Query{}), want.find(Query{}); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: final tables differ: %v vs oracle %v", seed, g, w)
		}
	}
}
