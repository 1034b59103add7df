// Package discovery implements service discovery in both of the styles the
// paper contrasts.
//
// The centralised LookupServer/LookupClient pair is Jini-like: providers
// register leased advertisements with a well-known lookup service, and
// clients query it. As the paper notes, this "requires lookup services,
// functioning as indexes of services offered, to operate" and is a poor fit
// for ad-hoc environments where no such index is reachable.
//
// The decentralised Beacon service is the ad-hoc alternative: every node
// periodically broadcasts its advertisements to its radio neighbors and
// caches what it hears, so discovery keeps working in an infrastructure-less
// piconet. Experiment T7 measures the two under churn.
package discovery

import (
	"slices"
	"time"

	"logmob/internal/wire"
)

// Ad advertises one service offered by a provider.
type Ad struct {
	// Service names the offered service, e.g. "cinema/tickets".
	Service string
	// Provider is the offering host's transport address.
	Provider string
	// Attrs carries free-form service metadata.
	Attrs map[string]string
	// TTL is how long the advertisement stays valid without renewal.
	TTL time.Duration
}

func (a *Ad) encode(b *wire.Buffer) {
	b.PutString(a.Service)
	b.PutString(a.Provider)
	b.PutStringMap(a.Attrs)
	b.PutInt(int64(a.TTL))
}

// decodeAd decodes one advertisement sent by from without allocating its
// names: a beaconing field re-decodes the same few strings from every
// neighbor on every tick. The service name is interned. The provider is
// almost always the sender itself (beacons and registrations advertise
// their own services), so when its bytes equal from, from's string is
// reused; only a third-party provider falls back to the intern table, which
// is bounded and process-wide and so cannot hold every provider of a large
// field.
func decodeAd(r *wire.Reader, from string) Ad {
	ad := Ad{Service: r.InternString()}
	if p := r.AliasBytes(); string(p) == from {
		ad.Provider = from
	} else {
		ad.Provider = wire.InternBytes(p)
	}
	ad.Attrs = r.StringMap()
	ad.TTL = time.Duration(r.Int())
	return ad
}

// Query matches advertisements. Service must match exactly; every Attrs
// entry must be present with the same value.
type Query struct {
	Service string
	Attrs   map[string]string
}

// Matches reports whether ad satisfies the query.
func (q Query) Matches(ad Ad) bool {
	if q.Service != "" && q.Service != ad.Service {
		return false
	}
	for k, v := range q.Attrs {
		if ad.Attrs[k] != v {
			return false
		}
	}
	return true
}

func (q Query) encode(b *wire.Buffer) {
	b.PutString(q.Service)
	b.PutStringMap(q.Attrs)
}

func decodeQuery(r *wire.Reader) Query {
	return Query{Service: r.String(), Attrs: r.StringMap()}
}

// Finder is the query interface shared by both discovery styles. The
// callback is invoked exactly once, possibly synchronously, with the
// matching advertisements (nil on failure or timeout).
type Finder interface {
	Find(q Query, cb func(ads []Ad))
}

// adKey identifies one lease: a provider's advertisement of one service.
type adKey struct {
	provider, service string
}

// lease is one stored advertisement with its expiry.
type lease struct {
	adKey
	attrs   map[string]string
	ttl     time.Duration
	expires time.Duration
}

// adIndexMin is the most leases an adTable finds by linear scan; a lookup
// server or a hostile frame past it gets a hash index instead.
const adIndexMin = 64

// adTable is an expiring advertisement store shared by the lookup server and
// the beacon cache. Leases sit in a slice in arrival order, as every roaming
// resident keeps a table of a few dozen. Expired leases are dropped before
// the slice grows, which bounds a cache nobody queries. Single-goroutine.
type adTable struct {
	now    func() time.Duration
	leases []lease
	index  map[adKey]int32 // lease positions; nil up to adIndexMin leases
	names  []string        // providers' scratch past adIndexMin leases
}

// at returns the position of k's lease, or -1.
func (t *adTable) at(k adKey) int {
	if i, ok := t.index[k]; ok {
		return int(i)
	} else if t.index != nil {
		return -1
	}
	for i := range t.leases {
		if t.leases[i].adKey == k {
			return i
		}
	}
	return -1
}

func (t *adTable) put(ad Ad) {
	ttl := ad.TTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	l := lease{adKey{ad.Provider, ad.Service}, ad.Attrs, ad.TTL, t.now() + ttl}
	if i := t.at(l.adKey); i >= 0 {
		t.leases[i] = l
		return
	}
	if n := len(t.leases); n == cap(t.leases) {
		t.prune()
		// Indexed, a prune also rebuilds the index: grow unless it freed n/4.
		if len(t.leases) == n || (t.index != nil && len(t.leases) > n-n/4) {
			t.leases = append(make([]lease, 0, max(8, 2*n)), t.leases...)
		}
	}
	t.leases = append(t.leases, l)
	if t.index != nil {
		t.index[l.adKey] = int32(len(t.leases) - 1)
	} else if len(t.leases) > adIndexMin {
		t.reindex()
	}
}

// filter drops, in place and keeping order, every lease gone reports.
func (t *adTable) filter(gone func(l *lease) bool) {
	kept := t.leases[:0]
	for i := range t.leases {
		if !gone(&t.leases[i]) {
			kept = append(kept, t.leases[i])
		}
	}
	if len(kept) < len(t.leases) {
		clear(t.leases[len(kept):])
		t.leases = kept
		t.reindex()
	}
}

// reindex rebuilds the index, or drops it at adIndexMin leases or fewer.
func (t *adTable) reindex() {
	if len(t.leases) <= adIndexMin {
		t.index, t.names = nil, nil
		return
	}
	t.index = make(map[adKey]int32, len(t.leases))
	for i := range t.leases {
		t.index[t.leases[i].adKey] = int32(i)
	}
}

func (t *adTable) drop(provider, service string) {
	t.filter(func(l *lease) bool { return l.adKey == adKey{provider, service} })
}

// dropProvider removes every lease held for one provider, returning how
// many unexpired ones were dropped (beacon miss-eviction).
func (t *adTable) dropProvider(provider string) int {
	now, live := t.now(), 0
	t.filter(func(l *lease) bool {
		if l.provider == provider && l.expires > now {
			live++
		}
		return l.provider == provider
	})
	return live
}

// find returns matching, unexpired ads and prunes expired ones.
func (t *adTable) find(q Query) []Ad {
	t.prune()
	var out []Ad
	for _, l := range t.leases {
		ad := Ad{Service: l.service, Provider: l.provider, Attrs: l.attrs, TTL: l.ttl}
		if q.Matches(ad) {
			out = append(out, ad)
		}
	}
	sortAds(out)
	return out
}

// prune drops expired leases.
func (t *adTable) prune() {
	now := t.now()
	t.filter(func(l *lease) bool { return l.expires <= now })
}

func (t *adTable) size() int {
	t.prune()
	return len(t.leases)
}

// providers counts the distinct providers with a live lease. Sensing calls
// it every tick, so it sorts their names on the stack or in t.names.
func (t *adTable) providers() int {
	t.prune()
	var small [adIndexMin]string
	names := small[:0]
	if len(t.leases) > adIndexMin {
		if cap(t.names) < len(t.leases) {
			t.names = make([]string, 0, 2*len(t.leases))
		}
		names = t.names[:0]
	}
	for i := range t.leases {
		names = append(names, t.leases[i].provider)
	}
	slices.Sort(names)
	return len(slices.Compact(names))
}

// sortAds orders ads by (service, provider) for deterministic output.
func sortAds(ads []Ad) {
	for i := 1; i < len(ads); i++ {
		for j := i; j > 0 && adLess(ads[j], ads[j-1]); j-- {
			ads[j], ads[j-1] = ads[j-1], ads[j]
		}
	}
}

func adLess(a, b Ad) bool {
	if a.Service != b.Service {
		return a.Service < b.Service
	}
	return a.Provider < b.Provider
}
