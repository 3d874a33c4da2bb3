package network

import "slices"

// This file is the message-coalescing surface of the batch-grouped
// protocol rounds: instead of one message per (unit update, destination),
// a protocol phase accumulates every item bound for one site into an
// Envelope and ships it as a single message per destination. The
// per-message overhead — framing, the round-trip a real link charges,
// the handler dispatch — is then paid once per (phase, destination) per
// batch rather than once per update, which is what turns a batch's
// O(|∆D| · n) protocol messages into O(n)-per-phase.

// Coalescer accumulates typed items per destination site. The zero value
// is ready to use; Reset recycles the allocated per-site slices so a
// driver can keep one envelope per phase across batches.
type Coalescer[Item any] struct {
	items map[SiteID][]Item
	sites []SiteID // sorted destinations, current while sorted is set
	// sorted reports that no destination gained its first item since
	// Sites last ran.
	sorted bool
}

// Add appends an item bound for site to.
func (e *Coalescer[Item]) Add(to SiteID, it Item) {
	if e.items == nil {
		e.items = make(map[SiteID][]Item)
	}
	q := e.items[to]
	if len(q) == 0 {
		e.sorted = false
	}
	e.items[to] = append(q, it)
}

// Len returns the number of items queued for site to.
func (e *Coalescer[Item]) Len(to SiteID) int { return len(e.items[to]) }

// Empty reports whether no destination has queued items.
func (e *Coalescer[Item]) Empty() bool {
	for _, its := range e.items {
		if len(its) > 0 {
			return false
		}
	}
	return true
}

// Items returns the queued items for site to, in insertion order.
func (e *Coalescer[Item]) Items(to SiteID) []Item { return e.items[to] }

// Sites returns every destination with at least one queued item, sorted —
// the deterministic send order of the phase. The slice is the
// envelope's own, valid until the next Add or Reset.
func (e *Coalescer[Item]) Sites() []SiteID {
	if !e.sorted {
		e.sites = e.sites[:0]
		for s, its := range e.items {
			if len(its) > 0 {
				e.sites = append(e.sites, s)
			}
		}
		slices.Sort(e.sites)
		e.sorted = true
	}
	return e.sites
}

// Reset clears every destination's queue, retaining the backing arrays.
// The dropped items are zeroed, so a kept envelope holds no reference to
// a past batch's data.
func (e *Coalescer[Item]) Reset() {
	for s, its := range e.items {
		clear(its)
		e.items[s] = its[:0]
	}
	e.sorted = false
}

// SortedSites returns a map's SiteID keys in ascending order — the
// deterministic iteration order protocol drivers use for per-site state.
func SortedSites[T any](m map[SiteID]T) []SiteID {
	out := make([]SiteID, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// GatherCoalesced ships each destination's queued items as one message
// (from → site) and collects the replies aligned with Sites(). req wraps
// a destination's item slice into the wire request. Destinations are
// contacted through the scatter/gather engine (concurrently where a call
// can wait); reply order is deterministic regardless of scheduling.
func GatherCoalesced[Item, Req, Resp any](c *Cluster, call CallFunc[Req, Resp], from SiteID, m *Method[Req, Resp], e *Coalescer[Item], req func(to SiteID, items []Item) Req) ([]SiteID, []Resp, error) {
	sites := e.Sites()
	resps, err := GatherVia(c, call, from, m, sites, func(to SiteID) Req {
		return req(to, e.items[to])
	})
	if err != nil {
		return nil, nil, err
	}
	return sites, resps, nil
}
