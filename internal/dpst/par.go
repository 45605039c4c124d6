package dpst

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/taskpar/avd/internal/chaos"
)

// Stats aggregates the DPST measurements reported in Table 1 of the
// paper: the number of nodes in the tree, the number of least common
// ancestor queries issued by the checker, and how many of those queries
// were unique (i.e., missed the LCA cache). Unique counts are only
// meaningful in the walk-based modes; the label mode consults no cache,
// so every query costs the same and UniqueLCAs stays 0.
type Stats struct {
	Nodes      int
	LCAQueries int64
	UniqueLCAs int64
}

// UniqueFraction returns the percentage of LCA queries that were unique,
// or 0 when no queries were performed (reported as "-NA-" in the paper).
func (s Stats) UniqueFraction() float64 {
	if s.LCAQueries == 0 {
		return 0
	}
	return 100 * float64(s.UniqueLCAs) / float64(s.LCAQueries)
}

const lcaShards = 256

// lcaShard is one bucket of the LCA result cache: a read-mostly map
// under an RWMutex. Plain maps avoid the per-entry boxing allocations a
// sync.Map would pay on this write-once workload.
type lcaShard struct {
	mu sync.RWMutex
	m  map[uint64]bool
}

// counterStripe is a cache-line padded counter cell; striping the query
// counter avoids cross-core ping-pong on the hottest instrumentation
// increment.
type counterStripe struct {
	n atomic.Int64
	_ [56]byte
}

// QueryMode selects the mechanism answering may-happen-in-parallel
// queries; the modes are observationally equivalent (asserted by the
// differential tests in labels_test.go) and differ only in cost model.
type QueryMode uint8

// Available query modes.
const (
	// ModeLabels answers Par and PairDepth by comparing the two nodes'
	// path labels up to their first divergence: O(LCA depth), no shared
	// mutable state, no locks. The default.
	ModeLabels QueryMode = iota
	// ModeCachedWalk performs the LCA tree walk and memoizes results in
	// a 256-way sharded map — the paper's Section 4 configuration, kept
	// as a selectable ablation (and for faithful Table 1 uniqueness
	// statistics).
	ModeCachedWalk
	// ModeWalk recomputes the tree walk on every query, isolating the
	// raw traversal cost for the Figure 14 ablation.
	ModeWalk
)

// String names the query mode as used in the harness configurations.
func (m QueryMode) String() string {
	switch m {
	case ModeLabels:
		return "labels"
	case ModeCachedWalk:
		return "cached-walk"
	default:
		return "walk"
	}
}

// Query answers may-happen-in-parallel (DMHP) queries over a DPST. In
// the default label mode each query is a lock-free label comparison; the
// walk modes reproduce the paper's LCA traversal with and without the
// sharded memoization cache (Section 4). A Query is safe for concurrent
// use.
type Query struct {
	tree       Tree
	mode       QueryMode
	gate       *chaos.Gate
	stripeMask uint64
	queries    []counterStripe
	unique     atomic.Int64
	shards     *[lcaShards]lcaShard // ModeCachedWalk only
}

// lcaEntryBytes estimates the tracked cost of one memoized LCA result
// (map key, value, and amortized bucket overhead).
const lcaEntryBytes = 48

// SetGate attaches an allocation gate to the LCA cache: once the gate
// refuses, results are still computed but no longer memoized, so a
// saturated cache degrades to recomputation instead of growing. Queries
// refused insertion recount as unique if recomputed.
func (q *Query) SetGate(g *chaos.Gate) { q.gate = g }

// NewQuery returns a walk-based Query over tree, preserving the historic
// two-state constructor: caching selects ModeCachedWalk, otherwise every
// query recomputes the tree walk (ModeWalk).
func NewQuery(tree Tree, caching bool) *Query {
	if caching {
		return NewQueryMode(tree, ModeCachedWalk)
	}
	return NewQueryMode(tree, ModeWalk)
}

// NewQueryMode returns a Query over tree answering in the given mode.
func NewQueryMode(tree Tree, mode QueryMode) *Query {
	q := &Query{tree: tree, mode: mode}
	// Size the counter stripes to a power of two covering the worker
	// count (clamped to [8, 32]) so concurrent increments spread across
	// cache lines even on wide machines.
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 32 {
		n <<= 1
	}
	q.queries = make([]counterStripe, n)
	q.stripeMask = uint64(n - 1)
	if mode == ModeCachedWalk {
		q.shards = new([lcaShards]lcaShard)
		for i := range q.shards {
			q.shards[i].m = make(map[uint64]bool)
		}
	}
	return q
}

// PairDepth returns the depth of LCA(a, b). In label mode it falls out
// of the same label comparison that answers Par; the walk modes traverse
// the tree. It supports the spanning-pair replacement rule and is not
// counted as an LCA query in the Table 1 statistics.
func (q *Query) PairDepth(a, b NodeID) int32 {
	if a == None || b == None {
		return 0
	}
	if q.mode == ModeLabels {
		_, d := ParLabels(q.tree, a, b)
		return d
	}
	return LCADepth(q.tree, a, b)
}

// Tree returns the underlying DPST.
func (q *Query) Tree() Tree { return q.tree }

// Mode returns the query-answering mode.
func (q *Query) Mode() QueryMode { return q.mode }

// Caching reports whether LCA results are memoized in the shared cache;
// callers layering their own caches should bypass them otherwise (in
// label mode a query is cheaper than a front-cache map hit).
func (q *Query) Caching() bool { return q.mode == ModeCachedWalk }

// CountQuery records an LCA query that was answered from a caller-side
// cache layer, keeping the Table 1 query statistics faithful.
func (q *Query) CountQuery(a, b NodeID) {
	q.queries[mix64(pairKey(a, b))&q.stripeMask].n.Add(1)
}

// PairKey returns the canonical cache key of an unordered node pair.
func PairKey(a, b NodeID) uint64 { return pairKey(a, b) }

// Stats returns a snapshot of the node and query counters.
func (q *Query) Stats() Stats {
	var total int64
	for i := range q.queries {
		total += q.queries[i].n.Load()
	}
	return Stats{
		Nodes:      q.tree.Len(),
		LCAQueries: total,
		UniqueLCAs: q.unique.Load(),
	}
}

func pairKey(a, b NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// mix64 is the splitmix64 finalizer: a full-avalanche mix so that hot
// symmetric pairs (whose raw keys share low bits) spread across counter
// stripes instead of colliding on one cache line.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Par reports whether the two step nodes can logically execute in
// parallel in some schedule of the recorded execution. Identical nodes
// and ancestor/descendant pairs are serial by definition.
func (q *Query) Par(a, b NodeID) bool {
	if a == b || a == None || b == None {
		return false
	}
	q.CountQuery(a, b)
	switch q.mode {
	case ModeLabels:
		par, _ := ParLabels(q.tree, a, b)
		return par
	case ModeWalk:
		q.unique.Add(1)
		return ComputePar(q.tree, a, b)
	}
	key := pairKey(a, b)
	shard := &q.shards[key%lcaShards]
	shard.mu.RLock()
	r, ok := shard.m[key]
	shard.mu.RUnlock()
	if ok {
		return r
	}
	r = ComputePar(q.tree, a, b)
	shard.mu.Lock()
	if _, dup := shard.m[key]; !dup {
		if q.gate.Allow(chaos.SiteLCACache, lcaEntryBytes) {
			shard.m[key] = r
			q.unique.Add(1)
		}
	}
	shard.mu.Unlock()
	return r
}

// ComputePar performs the uncached DMHP tree walk: it locates the least
// common ancestor of a and b and the two children of the LCA on the paths
// to a and b, and reports parallelism iff the left such child (the one
// with the smaller sibling rank) is an async node. It is the differential
// oracle for ParLabels.
func ComputePar(t Tree, a, b NodeID) bool {
	if a == b {
		return false
	}
	pa, pb := a, b
	for t.Depth(pa) > t.Depth(pb) {
		pa = t.Parent(pa)
	}
	for t.Depth(pb) > t.Depth(pa) {
		pb = t.Parent(pb)
	}
	if pa == pb {
		// One node is an ancestor of the other; they are ordered.
		return false
	}
	for t.Parent(pa) != t.Parent(pb) {
		pa = t.Parent(pa)
		pb = t.Parent(pb)
	}
	left := pa
	if t.Rank(pb) < t.Rank(pa) {
		left = pb
	}
	return t.Kind(left) == Async
}

// LCADepth returns the depth of the least common ancestor of a and b
// (the root has depth 0). It is used by the checker's spanning-pair
// replacement rule: among three mutually parallel steps, the pair with
// the shallowest LCA covers the widest range of future parallel steps.
func LCADepth(t Tree, a, b NodeID) int32 {
	if a == b {
		return t.Depth(a)
	}
	pa, pb := a, b
	for t.Depth(pa) > t.Depth(pb) {
		pa = t.Parent(pa)
	}
	for t.Depth(pb) > t.Depth(pa) {
		pb = t.Parent(pb)
	}
	for pa != pb {
		pa = t.Parent(pa)
		pb = t.Parent(pb)
	}
	return t.Depth(pa)
}

// LeftOf reports whether step a precedes step b in the left-to-right
// ordering of the DPST, i.e. whether a's subtree is to the left of b's at
// their least common ancestor. Nodes equal to each other or on the same
// root path are ordered by depth (the ancestor is "left").
func LeftOf(t Tree, a, b NodeID) bool {
	if a == b {
		return false
	}
	pa, pb := a, b
	for t.Depth(pa) > t.Depth(pb) {
		pa = t.Parent(pa)
	}
	for t.Depth(pb) > t.Depth(pa) {
		pb = t.Parent(pb)
	}
	if pa == pb {
		return t.Depth(a) < t.Depth(b)
	}
	for t.Parent(pa) != t.Parent(pb) {
		pa = t.Parent(pa)
		pb = t.Parent(pb)
	}
	return t.Rank(pa) < t.Rank(pb)
}
