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

// lease is the rest of a stored advertisement, with its expiry. The names
// live only in the key, which keeps a beacon cache's map slots small: every
// resident of a roaming crowd accumulates a lease per provider it passes.
type lease struct {
	attrs   map[string]string
	ttl     time.Duration
	expires time.Duration
}

func (k adKey) ad(l lease) Ad {
	return Ad{Service: k.service, Provider: k.provider, Attrs: l.attrs, TTL: l.ttl}
}

// adTable is an expiring advertisement store shared by the lookup server and
// the beacon cache. Single-goroutine (simulation/handler context).
type adTable struct {
	now    func() time.Duration
	leases map[adKey]lease
}

func newAdTable(now func() time.Duration) *adTable {
	return &adTable{now: now, leases: make(map[adKey]lease)}
}

func (t *adTable) put(ad Ad) {
	ttl := ad.TTL
	if ttl <= 0 {
		ttl = time.Minute
	}
	t.leases[adKey{ad.Provider, ad.Service}] = lease{attrs: ad.Attrs, ttl: ad.TTL, expires: t.now() + ttl}
}

func (t *adTable) drop(provider, service string) {
	delete(t.leases, adKey{provider, service})
}

// dropProvider removes every lease held for one provider, returning how
// many were dropped (beacon miss-eviction).
func (t *adTable) dropProvider(provider string) int {
	n := 0
	for key := range t.leases {
		if key.provider == provider {
			delete(t.leases, key)
			n++
		}
	}
	return n
}

// find returns matching, unexpired ads and prunes expired ones.
func (t *adTable) find(q Query) []Ad {
	now := t.now()
	var out []Ad
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
			continue
		}
		if ad := key.ad(l); q.Matches(ad) {
			out = append(out, ad)
		}
	}
	sortAds(out)
	return out
}

// prune drops expired leases.
func (t *adTable) prune() {
	now := t.now()
	for key, l := range t.leases {
		if l.expires <= now {
			delete(t.leases, key)
		}
	}
}

func (t *adTable) size() int {
	t.prune()
	return len(t.leases)
}

// providers counts the distinct providers with at least one live lease.
func (t *adTable) providers() int {
	t.prune()
	seen := make(map[string]bool)
	for key := range t.leases {
		seen[key.provider] = true
	}
	return len(seen)
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
