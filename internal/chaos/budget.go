package chaos

import "sync/atomic"

// Budget bounds the tracked bytes of checker and DPST metadata. Reserve
// is the only mutation: a CAS loop that either charges the whole
// reservation or none of it, so the tracked total never exceeds the
// limit, not even transiently. A nil *Budget admits everything.
type Budget struct {
	limit     int64
	used      atomic.Int64
	saturated atomic.Bool
}

// NewBudget creates a budget of limit tracked bytes; limit <= 0 returns
// nil (unlimited).
func NewBudget(limit int64) *Budget {
	if limit <= 0 {
		return nil
	}
	return &Budget{limit: limit}
}

// Reserve charges n tracked bytes against the budget, or refuses and
// marks the budget saturated when the charge would exceed the limit.
func (b *Budget) Reserve(n int64) bool {
	if b == nil {
		return true
	}
	for {
		cur := b.used.Load()
		if cur+n > b.limit {
			b.saturated.Store(true)
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// Used returns the tracked bytes currently charged.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Limit returns the budget limit in bytes (0 = unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Saturated reports whether any reservation has been refused.
func (b *Budget) Saturated() bool {
	return b != nil && b.saturated.Load()
}

// Gate arbitrates gated allocations: an injected failure from the plane
// denies first, then the budget. Denials are counted per site. A nil
// *Gate (or a gate with nil halves) admits everything, so the paper's
// default configuration pays one nil check per slow-path allocation and
// nothing else.
type Gate struct {
	Plane  *Plane
	Budget *Budget

	drops  [numSites]atomic.Int64
	onDrop func(Site, int64)
}

// SetDropObserver installs a callback invoked on every denied
// allocation with the site and the refused byte count. It must be set
// before the gate is shared with concurrent allocators; the callback
// runs on the allocating goroutine and must be cheap and non-blocking.
func (g *Gate) SetDropObserver(fn func(Site, int64)) {
	if g != nil {
		g.onDrop = fn
	}
}

// Allow decides whether an allocation of n bytes at site may proceed.
func (g *Gate) Allow(site Site, n int64) bool {
	if g == nil {
		return true
	}
	if g.Plane.AllocFail(site) || !g.Budget.Reserve(n) {
		g.drops[site].Add(1)
		if g.onDrop != nil {
			g.onDrop(site, n)
		}
		return false
	}
	return true
}

// Drops returns the number of denied allocations at site.
func (g *Gate) Drops(site Site) int64 {
	if g == nil {
		return 0
	}
	return g.drops[site].Load()
}

// DropsTotal returns the number of denied allocations across all sites.
func (g *Gate) DropsTotal() int64 {
	if g == nil {
		return 0
	}
	var total int64
	for i := range g.drops {
		total += g.drops[i].Load()
	}
	return total
}

// Saturated reports whether the gate has denied anything — by injection
// or by budget exhaustion.
func (g *Gate) Saturated() bool {
	return g != nil && (g.Budget.Saturated() || g.DropsTotal() > 0)
}
