package sched

// The window-elision cache: the handle layer's front end to the batched
// checker (DESIGN.md §4.3). Once a batch window has proven an access
// type redundant for a location — the batch deduplicator's redundancy
// word has the type's bit set — every further access of that type in
// the same window is a checker no-op, so Task.Access can return before
// touching the batch buffer or the dedup table at all. The checker
// mirrors its per-window saturation facts into this cache and bumps the
// generation at every window boundary; the handle layer only ever reads
// it through Hit.
//
// An Elide is owned by exactly one task at a time and is only touched
// from the goroutine currently executing that task (the same ownership
// discipline as Task.Local): Hit runs on the task's own accesses, and
// the checker's mirror/invalidate calls run inside monitor callbacks on
// the same goroutine.

const (
	// ElideBits fixes the cache geometry to the batch deduplicator's:
	// both are direct-mapped by loc&ElideMask, so slot i of this cache
	// only ever mirrors facts about the location currently occupying
	// slot i's residue class in the window.
	ElideBits = 6
	// ElideSize is the number of direct-mapped slots.
	ElideSize = 1 << ElideBits
	// ElideMask indexes the slots.
	ElideMask = ElideSize - 1
)

// Saturation bits of an elide entry. The numeric values deliberately
// equal the batch deduplicator's redundancy-word bits (filtR/filtW), so
// the checker can mirror its redundancy word into Set verbatim.
const (
	// ElideR marks reads of the location saturated in this window.
	ElideR uint8 = 1 << iota
	// ElideW marks writes saturated.
	ElideW
)

// elideEntry is one direct-mapped slot: a location, the window
// generation the fact was recorded under, and the saturation bits.
type elideEntry struct {
	loc  Loc
	gen  uint64
	bits uint8
}

// Elide is a per-task window-saturation cache. The zero value is ready
// to use (generation 0 with zero-valued entries never matches a real
// location, because location IDs start at 1).
type Elide struct {
	gen     uint64
	hits    uint64
	entries [ElideSize]elideEntry
}

// Hit reports whether an access of the given type to loc is saturated
// in the current window and may be elided, counting it when so. The
// entry must carry the current generation: facts recorded before the
// last window boundary are dead.
func (e *Elide) Hit(loc Loc, write bool) bool {
	en := &e.entries[uint64(loc)&ElideMask]
	bit := ElideR
	if write {
		bit = ElideW
	}
	if en.loc != loc || en.gen != e.gen || en.bits&bit == 0 {
		return false
	}
	e.hits++
	return true
}

// Mirror publishes the checker's current redundancy word for loc,
// stamped with the current generation. The word must be followed down
// as well as up — a first write re-enables reads (and vice versa), so a
// zero word overwrites an entry already describing loc. A zero word for
// a location the slot does not currently describe is dropped instead:
// the resident entry belongs to a colliding location whose facts are
// still valid this window, and evicting them for a nothing-to-elide
// word would only cost dispatches.
func (e *Elide) Mirror(loc Loc, bits uint8) {
	en := &e.entries[uint64(loc)&ElideMask]
	if bits == 0 && en.loc != loc {
		return
	}
	*en = elideEntry{loc: loc, gen: e.gen, bits: bits}
}

// Invalidate kills every recorded fact by advancing the generation; the
// checker calls it at each window boundary that invalidates its own
// redundancy words (and when recycling the cache to a new task).
func (e *Elide) Invalidate() { e.gen++ }

// TakeHits returns and clears the elision count accumulated since the
// last call; the checker folds it into its striped counters at flush.
func (e *Elide) TakeHits() uint64 {
	h := e.hits
	e.hits = 0
	return h
}
