package checker

import (
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
)

// Indices of the single-access entries (R1, R2, W1, W2) in the global
// metadata space.
const (
	sR1 = iota
	sR2
	sW1
	sW2
)

// Indices of the two-access pattern kinds (read-read, read-write,
// write-read, write-write).
const (
	pRR = iota
	pRW
	pWR
	pWW
)

// patTypes maps a pattern kind to its (first, last) access types.
var patTypes = [4][2]AccessType{
	pRR: {Read, Read},
	pRW: {Read, Write},
	pWR: {Write, Read},
	pWW: {Write, Write},
}

// optCell is the per-location global metadata space: twelve access
// history entries as in Section 3.2.1 — four single-access entries plus
// two entries for each of the four two-access pattern kinds. The paper's
// "eight of them capture the four different kinds of two-access
// patterns" is exactly two entries per kind; both accesses of a pattern
// belong to one step, so each entry stores just that step.
//
// Keeping two entries per kind (rather than one) is essential for
// completeness: with a single entry, a pattern step dropped because the
// stored step is parallel to it would be missed when a later interleaver
// is parallel only to the dropped step. The replacement discipline is
// the spanning-pair rule of SPD3 (see chooseSlot).
//
// The global space carries no lock information in paper mode (Section
// 3.3 keeps locksets local); the strict-lock extension attaches lockInfo
// lazily.
type optCell struct {
	mu     spinLock
	single [4]dpst.NodeID
	pat    [4][2]dpst.NodeID
	// singleD and patD memoize the LCA depth of each stored entry pair
	// (the spanning rule's comparison baseline), maintained on
	// replacement so steady-state accesses avoid tree walks.
	singleD [2]int32
	patD    [4]int32
	// patMask has bit kind set when that pattern kind has an entry, so
	// interleaver-role checks skip empty kinds without touching them.
	patMask  uint8
	lockInfo *cellLocks

	// tick is the cell's event clock for provenance: it advances once per
	// full dispatch on this location (under mu), and the install time of
	// each single entry is stamped in singleTick. Comparing a stored
	// single's install tick against the pattern step's first-access tick
	// classifies a candidate-role triple as observed (the interleaver
	// arrived between the pattern's two accesses in this schedule) or
	// inferred for another schedule. Ticks never reach reports directly —
	// only the derived Observed bit does — so skipped or deduplicated
	// dispatches shifting tick values cannot perturb report content.
	tick       uint64
	singleTick [4]uint64
}

// cellLocks carries the strict-lock extension's lockset annotations for
// the global entries: the lockset held at each single access, and the
// common lockset of each stored pattern.
type cellLocks struct {
	single [4][]uint64
	pat    [4][2][]uint64
}

func initOptCell(c *optCell) {
	for i := range c.single {
		c.single[i] = dpst.None
	}
	for k := range c.pat {
		c.pat[k][0] = dpst.None
		c.pat[k][1] = dpst.None
	}
}

func (c *optCell) singleLocks(i int) []uint64 {
	if c.lockInfo == nil {
		return nil
	}
	return c.lockInfo.single[i]
}

func (c *optCell) patLocks(k, slot int) []uint64 {
	if c.lockInfo == nil {
		return nil
	}
	return c.lockInfo.pat[k][slot]
}

func (c *optCell) locks() *cellLocks {
	if c.lockInfo == nil {
		c.lockInfo = &cellLocks{}
	}
	return c.lockInfo
}

// Offer-once flags kept in localEntry: once a step has offered its
// single-access entry (including its interleaver-role checks) or a
// pattern candidate of a given kind to the global space, an identical
// lock-free repeat by the same step can be skipped entirely. This is
// sound for location-level detection: the global entries kept by the
// spanning-pair discipline cover every dropped offer, so the symmetric
// check on the other access of any real violating triple still fires.
const (
	fR  uint8 = 1 << iota // read single offered + interleaver checks done
	fW                    // write single offered + interleaver checks done
	fRR                   // read-read pattern candidate offered
	fRW                   // read-write pattern candidate offered
	fWR                   // write-read pattern candidate offered
	fWW                   // write-write pattern candidate offered
)

// localEntry is the per-task local metadata space for one location: the
// first read and first write performed by the task's current step, with
// the locksets held at those accesses (Section 3.3). Entries recorded by
// earlier steps of the same task are stale and ignored. The entry also
// caches the location's global cell so the sharded shadow map is
// consulted once per (task, location).
type localEntry struct {
	cell       *optCell
	readStep   dpst.NodeID
	writeStep  dpst.NodeID
	flags      uint8
	readLocks  []uint64
	writeLocks []uint64
	// readTick and writeTick record the cell tick at the step's first
	// read/write of the location — the pattern-side baseline of the
	// observed/inferred provenance classification.
	readTick  uint64
	writeTick uint64
}

// locTable maps a task's accessed locations to their local entries: an
// open-addressing table (power-of-two capacity, Fibonacci hashing,
// linear probing) replacing the built-in map on the hot path. A lookup
// is one multiply-shift and, at the table's load factor, rarely more
// than one compare; an insert never runs the runtime map's incremental
// growth machinery, which dominated the profile of first-touch-heavy
// kernels (one ray or one sweep chunk per task inserts its whole
// working set into a freshly grown map). Location 0 marks empty slots;
// real location IDs start at 1.
type locTable struct {
	keys  []sched.Loc
	vals  []*localEntry
	n     int
	shift uint8 // 64 - log2(cap), the Fibonacci-hash shift
}

const locTableBits = 4 // initial capacity 16

func (t *locTable) init() {
	t.keys = make([]sched.Loc, 1<<locTableBits)
	t.vals = make([]*localEntry, 1<<locTableBits)
	t.shift = 64 - locTableBits
}

// get returns the entry for loc, or nil when absent.
func (t *locTable) get(loc sched.Loc) *localEntry {
	mask := uint64(len(t.keys) - 1)
	i := uint64(loc) * 0x9E3779B97F4A7C15 >> t.shift
	for {
		switch t.keys[i] {
		case loc:
			return t.vals[i]
		case 0:
			return nil
		}
		i = (i + 1) & mask
	}
}

// put inserts loc → e; loc must not be present.
func (t *locTable) put(loc sched.Loc, e *localEntry) {
	if t.n >= len(t.keys)-len(t.keys)/4 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := uint64(loc) * 0x9E3779B97F4A7C15 >> t.shift
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = loc, e
	t.n++
}

func (t *locTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]sched.Loc, 2*len(oldKeys))
	t.vals = make([]*localEntry, 2*len(oldVals))
	t.shift--
	mask := uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := uint64(k) * 0x9E3779B97F4A7C15 >> t.shift
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = k, oldVals[j]
	}
}

// localSpace is a task's local metadata, kept in Task.Local. Besides the
// per-location entries it holds a task-private front cache for Par
// results (entries: 1 = serial, 2 = parallel), created only in the
// cached-walk query mode: the same step pair is queried for many
// locations in a row (e.g. a merge step against the previous level's
// steps for every array element), and the private map answers those
// repeats without touching the shared cache. In label mode a query is
// cheaper than the map hit, so no front cache is kept. rep is the task's
// private violation buffer, created on its first report.
type localSpace struct {
	m     locTable
	par   map[uint64]int8
	rep   *reportBuffer
	chunk []localEntry
	used  int

	// lockChunk bump-allocates the lockset copies stored in local
	// entries, and inter is the reusable scratch for lockset
	// intersections — both replace the per-access heap allocations of
	// the locked hot path.
	lockChunk []uint64
	lockUsed  int
	inter     []uint64
}

// Bump-chunk sizes of the local space. Most tasks touch a handful of
// locations under a handful of locks, so the first chunk is small and
// each replacement doubles, up to the cap. A full chunk is replaced,
// never grown in place or moved, so every entry and lockset copy
// already handed out stays valid.
const (
	entryChunkMin = 4
	entryChunkMax = 64
	lockChunkMin  = 8
	lockChunkMax  = 128
)

// alloc bump-allocates a local entry from the space's current chunk.
func (ls *localSpace) alloc() *localEntry {
	if ls.used == len(ls.chunk) {
		ls.chunk = make([]localEntry, min(max(2*len(ls.chunk), entryChunkMin), entryChunkMax))
		ls.used = 0
	}
	e := &ls.chunk[ls.used]
	ls.used++
	return e
}

// copyLockSlice copies a lockset into the space's bump arena. Like the
// entry chunks, arena chunks are never reclaimed individually; lockset
// copies are tiny (lock nesting depth) and die with the task.
func (ls *localSpace) copyLockSlice(a []uint64) []uint64 {
	if len(a) == 0 {
		return nil
	}
	if ls.lockUsed+len(a) > len(ls.lockChunk) {
		n := min(max(2*len(ls.lockChunk), lockChunkMin), lockChunkMax)
		if len(a) > n {
			n = len(a)
		}
		ls.lockChunk = make([]uint64, n)
		ls.lockUsed = 0
	}
	out := ls.lockChunk[ls.lockUsed : ls.lockUsed+len(a) : ls.lockUsed+len(a)]
	ls.lockUsed += len(a)
	copy(out, a)
	return out
}

// intersect returns the common tokens of two locksets into a scratch
// buffer reused across calls: the result is only valid until the next
// call, so callers that retain it (the strict mode's global pattern
// locksets) must copy it first.
func (ls *localSpace) intersect(a, b []uint64) []uint64 {
	out := ls.inter[:0]
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	ls.inter = out
	return out
}

// Optimized is the paper's fixed-metadata atomicity checker.
type Optimized struct {
	q      *dpst.Query
	rep    *Reporter
	strict bool
	mem    shadow[optCell]
}

func newOptimized(opts Options) *Optimized {
	c := &Optimized{
		q:      opts.Query,
		rep:    opts.Reporter,
		strict: opts.StrictLockChecks,
	}
	c.mem.initC = initOptCell
	c.mem.setGate(opts.Gate)
	return c
}

// Reporter implements Checker.
func (c *Optimized) Reporter() *Reporter { return c.rep }

// Stats implements Checker.
func (c *Optimized) Stats() Stats {
	return Stats{Locations: c.mem.count.Load()}
}

// OnAcquire implements sched.Monitor; lockset maintenance lives in the
// runtime, so nothing to do.
func (c *Optimized) OnAcquire(*sched.Task, *sched.Mutex) {}

// OnRelease implements sched.Monitor.
func (c *Optimized) OnRelease(*sched.Task, *sched.Mutex) {}

// newSpace creates a task's local space on its first instrumented
// access (the slow path of Access, kept out of its inlining footprint).
func (c *Optimized) newSpace(slot *any) *localSpace {
	sp := c.makeSpace()
	*slot = sp
	return sp
}

// makeSpace builds a local space without publishing it to a task slot;
// the batched dispatcher embeds the space in its own per-task state.
func (c *Optimized) makeSpace() *localSpace {
	sp := &localSpace{}
	sp.m.init()
	if c.q.Caching() {
		sp.par = make(map[uint64]int8)
	}
	return sp
}

// newEntry creates the task's local entry for loc, resolving the
// location's global cell (the slow path of the Access map probe).
func (c *Optimized) newEntry(sp *localSpace, loc sched.Loc) *localEntry {
	e := sp.alloc()
	e.cell = c.mem.cell(loc)
	e.readStep, e.writeStep = dpst.None, dpst.None
	sp.m.put(loc, e)
	return e
}

// par answers a may-happen-in-parallel query through the current task's
// front cache, falling back to the shared query cache.
func (c *Optimized) par(sp *localSpace, a, b dpst.NodeID) bool {
	if a == b || a == dpst.None || b == dpst.None {
		return false
	}
	if !c.q.Caching() {
		return c.q.Par(a, b)
	}
	key := dpst.PairKey(a, b)
	if v, ok := sp.par[key]; ok {
		c.q.CountQuery(a, b)
		return v == 2
	}
	r := c.q.Par(a, b)
	v := int8(1)
	if r {
		v = 2
	}
	sp.par[key] = v
	return r
}

// intersect returns the common tokens of two locksets (nil when
// disjoint). Locksets are tiny (nesting depth), so quadratic is fine.
func intersect(a, b []uint64) []uint64 {
	var out []uint64
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func copyLocks(a []uint64) []uint64 {
	if len(a) == 0 {
		return nil
	}
	return append([]uint64(nil), a...)
}

// checkTriple reports a violation if a two-access pattern (performed by
// patStep with types a1, a3 and common lockset patLocks) can be torn by
// the single access (inter, a2, interLocks) from a logically parallel
// step. In paper mode patLocks is always empty and the lockset test is
// vacuous, matching the paper's lock-free global space.
//
// observed says whether the unserializable order actually occurred in
// this schedule (see optCell.tick); it flows into the provenance, which
// is built only for triples the task has not reported before — the
// isDup probe keeps the steady-state path (duplicate re-detections)
// allocation-free.
func (c *Optimized) checkTriple(sp *localSpace, loc sched.Loc, patStep dpst.NodeID, patLocks []uint64, a1, a3 AccessType, inter dpst.NodeID, a2 AccessType, interLocks []uint64, observed bool) {
	if patStep == dpst.None || inter == dpst.None {
		return
	}
	if !Unserializable(a1, a2, a3) {
		return
	}
	if !identityDisjoint(patLocks, interLocks) {
		return
	}
	if !c.par(sp, patStep, inter) {
		return
	}
	tr := c.q.Tree()
	if sp.rep == nil {
		sp.rep = c.rep.buffer()
	}
	v := Violation{
		Loc:             loc,
		PatternStep:     patStep,
		InterleaverStep: inter,
		First:           a1,
		Middle:          a2,
		Last:            a3,
		PatternTask:     tr.Task(patStep),
		InterleaverTask: tr.Task(inter),
	}
	if sp.rep.isDup(v.key()) {
		return
	}
	v.Prov = buildProvenance(tr, patStep, inter, patLocks, interLocks, observed)
	sp.rep.report(v)
}

// checkStoredPatterns checks the current access, in the interleaver
// role, against both stored entries of the given pattern kind. An
// interleaver-role detection is never observed: the middle access is
// arriving after the stored pattern completed, so the unserializable
// order is inferred for another schedule.
func (c *Optimized) checkStoredPatterns(sp *localSpace, loc sched.Loc, cell *optCell, kind int, inter dpst.NodeID, a2 AccessType, interLocks []uint64) {
	if cell.patMask&(1<<kind) == 0 {
		return
	}
	t := patTypes[kind]
	for slot := 0; slot < 2; slot++ {
		c.checkTriple(sp, loc, cell.pat[kind][slot], cell.patLocks(kind, slot), t[0], t[1], inter, a2, interLocks, false)
	}
}

// checkCandidate checks a freshly formed two-access pattern against a
// stored single-access entry. firstTick is the cell tick of the pattern
// step's first access: the triple was observed in this schedule iff the
// stored single was installed after it — i.e. the interleaving access
// actually fell between the pattern's two accesses.
func (c *Optimized) checkCandidate(sp *localSpace, loc sched.Loc, cell *optCell, candStep dpst.NodeID, candLocks []uint64, a1, a3 AccessType, singleIdx int, a2 AccessType, firstTick uint64) {
	observed := cell.singleTick[singleIdx] > firstTick
	c.checkTriple(sp, loc, candStep, candLocks, a1, a3, cell.single[singleIdx], a2, cell.singleLocks(singleIdx), observed)
}

// chooseSlot decides where a new step s goes among a two-entry history
// (slots holding steps a and b): slot 0, slot 1, or dropped (-1).
//
// An empty or series-related slot is replaced (Figure 8: a serial
// predecessor is subsumed by the newer access — any future step parallel
// to the old one is parallel to the new one, by the series-parallel
// structure and trace order). When s is parallel to both entries, the
// pair with the shallowest least common ancestor is kept — SPD3's
// spanning-reader discipline — which guarantees any future step parallel
// to a dropped step is parallel to one of the kept entries.
func (c *Optimized) chooseSlot(sp *localSpace, a, b, s dpst.NodeID, dab int32) int {
	if a == dpst.None || !c.par(sp, a, s) {
		return 0
	}
	if b == dpst.None || !c.par(sp, b, s) {
		return 1
	}
	das := c.q.PairDepth(a, s)
	if dab <= das {
		if dab <= c.q.PairDepth(b, s) {
			return -1 // the current pair already spans widest
		}
		return 0 // keep {b, s}
	}
	if das <= c.q.PairDepth(b, s) {
		return 1 // keep {a, s}
	}
	return 0 // keep {b, s}
}

// updateSingle installs (si, locks) into the single-entry pair (a, b);
// a is sR1 or sW1 and b the matching second slot.
func (c *Optimized) updateSingle(sp *localSpace, cell *optCell, a, b int, si dpst.NodeID, locks []uint64) {
	if !c.strict && (cell.single[a] == si || cell.single[b] == si) {
		// Re-offer of an already-stored step: replacement would at best
		// re-install si (or shrink the pair to {si, si}), so keeping the
		// stored pair loses nothing. Strict mode still runs, since it
		// refreshes the entry's lockset.
		return
	}
	dIdx := a / 2 // (sR1,sR2) -> 0, (sW1,sW2) -> 1
	idx := a
	switch c.chooseSlot(sp, cell.single[a], cell.single[b], si, cell.singleD[dIdx]) {
	case 0:
	case 1:
		idx = b
	default:
		return
	}
	if cell.single[idx] != si {
		// Stamp the install time only when the stored step changes: a
		// strict-mode re-offer refreshing the lockset keeps the step's
		// original install tick, so the observed/inferred classification
		// is independent of how often the offer is repeated (and of the
		// batch deduplicator suppressing those repeats).
		cell.singleTick[idx] = cell.tick
	}
	cell.single[idx] = si
	if cell.single[a] != dpst.None && cell.single[b] != dpst.None {
		cell.singleD[dIdx] = c.q.PairDepth(cell.single[a], cell.single[b])
	}
	if c.strict {
		cell.locks().single[idx] = copyLocks(locks)
	}
}

// updatePattern installs a freshly formed two-access pattern into the
// kind's entry pair.
func (c *Optimized) updatePattern(sp *localSpace, cell *optCell, kind int, candStep dpst.NodeID, candLocks []uint64) {
	if !c.strict && (cell.pat[kind][0] == candStep || cell.pat[kind][1] == candStep) {
		// Same idempotence argument as updateSingle's re-offer guard.
		return
	}
	slot := c.chooseSlot(sp, cell.pat[kind][0], cell.pat[kind][1], candStep, cell.patD[kind])
	if slot < 0 {
		return
	}
	cell.pat[kind][slot] = candStep
	cell.patMask |= 1 << kind
	if cell.pat[kind][0] != dpst.None && cell.pat[kind][1] != dpst.None {
		cell.patD[kind] = c.q.PairDepth(cell.pat[kind][0], cell.pat[kind][1])
	}
	if c.strict {
		// candLocks may live in the task's intersect scratch; the global
		// entry outlives the task, so take a heap copy.
		cell.locks().pat[kind][slot] = copyLocks(candLocks)
	}
}

// OnAccess implements sched.Monitor.
func (c *Optimized) OnAccess(t *sched.Task, loc sched.Loc, write bool) {
	c.Access(t, loc, write)
}

// Access checks one access with the dispatch of Figure 6: it resolves
// the task's local entry for loc (created on the step's first touch) and
// hands it to dispatchEntry, whose offer-once flags answer lock-free
// repeats without taking the cell lock.
func (c *Optimized) Access(ts TaskState, loc sched.Loc, write bool) {
	slot, si, locks := ts.AccessState()
	sp, ok := (*slot).(*localSpace)
	if !ok {
		sp = c.newSpace(slot)
	}
	ls := sp.m.get(loc)
	if ls == nil {
		ls = c.newEntry(sp, loc)
	}
	c.dispatchEntry(sp, ls, loc, si, locks, write)
}

// dispatchEntry outcomes.
const (
	// dispatchRan: the full Figure 6 dispatch ran under the cell lock.
	dispatchRan = iota
	// dispatchSkipped: the offer-once fast path proved the access a no-op.
	dispatchSkipped
	// dispatchDenied: the gate refused the location's metadata; the access
	// is not part of the analysis.
	dispatchDenied
)

// dispatchEntry runs the core of one access — the offer-once fast path
// and the Figure 6 dispatch — against an already resolved local entry,
// with the caller supplying the step node and lockset. It is shared by
// the per-access path (Access) and by the batched dispatcher (which
// replays a step's coalesced accesses under the batch's captured state).
func (c *Optimized) dispatchEntry(sp *localSpace, ls *localEntry, loc sched.Loc, si dpst.NodeID, locks []uint64, write bool) int {
	cell := ls.cell
	if cell == nil {
		// The gate refused this location's metadata: the location is not
		// part of the analysis (graceful degradation). The nil cell is
		// cached in the local entry, so the refusal costs one shadow
		// lookup per task, not per access.
		return dispatchDenied
	}

	localRead := ls.readStep == si
	localWrite := ls.writeStep == si
	// Offer-once fast path: a lock-free repeat whose offers and checks
	// have all happened is a no-op (see the flag documentation).
	if len(locks) == 0 {
		if write {
			if localWrite && ls.flags&fW != 0 && ls.flags&fWW != 0 &&
				(!localRead || ls.flags&fRW != 0) {
				return dispatchSkipped
			}
		} else {
			if localRead && ls.flags&fR != 0 && ls.flags&fRR != 0 &&
				(!localWrite || ls.flags&fWR != 0) {
				return dispatchSkipped
			}
		}
	}
	// The Figure 6 dispatch, under the cell lock. Each dispatch advances
	// the cell's provenance clock exactly once.
	cell.mu.lock()
	cell.tick++
	if !localRead && !localWrite {
		if cell.single[sR1] == dpst.None && cell.single[sW1] == dpst.None {
			c.handleFirstAccess(sp, cell, ls, si, write, locks)
		} else {
			c.handleFirstAccessCurrentTask(sp, loc, cell, ls, si, write, locks)
		}
	} else {
		c.handleNonFirstAccess(sp, loc, cell, ls, si, write, locks, localRead, localWrite)
	}
	cell.mu.unlock()
	return dispatchRan
}

// setLocalRead records the step's first read in the local space,
// clearing the offer flags tied to the previous read entry. The lockset
// copy comes from the space's bump arena, not the heap. tick is the
// cell's current dispatch tick, kept as the provenance baseline.
func setLocalRead(sp *localSpace, ls *localEntry, si dpst.NodeID, locks []uint64, tick uint64) {
	ls.readStep, ls.readLocks, ls.readTick = si, sp.copyLockSlice(locks), tick
	ls.flags &^= fR | fRR | fRW
}

// setLocalWrite records the step's first write in the local space.
func setLocalWrite(sp *localSpace, ls *localEntry, si dpst.NodeID, locks []uint64, tick uint64) {
	ls.writeStep, ls.writeLocks, ls.writeTick = si, sp.copyLockSlice(locks), tick
	ls.flags &^= fW | fWW | fWR
}

// markDone sets an offer flag when the access is lock-free (locked
// repeats always take the slow path, since their locksets vary).
func markDone(ls *localEntry, locks []uint64, flag uint8) {
	if len(locks) == 0 {
		ls.flags |= flag
	}
}

// handleFirstAccess is Figure 7: the very first access to the location
// by any task. No LCA query is performed.
func (c *Optimized) handleFirstAccess(sp *localSpace, cell *optCell, ls *localEntry, si dpst.NodeID, write bool, locks []uint64) {
	idx := sR1
	if write {
		idx = sW1
	}
	cell.single[idx] = si
	cell.singleTick[idx] = cell.tick
	if c.strict {
		cell.locks().single[idx] = copyLocks(locks)
	}
	if write {
		setLocalWrite(sp, ls, si, locks, cell.tick)
		markDone(ls, locks, fW)
	} else {
		setLocalRead(sp, ls, si, locks, cell.tick)
		markDone(ls, locks, fR)
	}
}

// handleFirstAccessCurrentTask is Figure 8: the current step has not
// accessed the location before, but other tasks have. The only possible
// violation pairs the current access, as interleaver, with a stored
// global two-access pattern.
func (c *Optimized) handleFirstAccessCurrentTask(sp *localSpace, loc sched.Loc, cell *optCell, ls *localEntry, si dpst.NodeID, write bool, locks []uint64) {
	if write {
		setLocalWrite(sp, ls, si, locks, cell.tick)
		c.checkStoredPatterns(sp, loc, cell, pWW, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pRW, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pRR, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pWR, si, Write, locks)
		c.updateSingle(sp, cell, sW1, sW2, si, locks)
		markDone(ls, locks, fW)
	} else {
		setLocalRead(sp, ls, si, locks, cell.tick)
		c.checkStoredPatterns(sp, loc, cell, pWW, si, Read, locks)
		c.updateSingle(sp, cell, sR1, sR2, si, locks)
		markDone(ls, locks, fR)
	}
}

// handleNonFirstAccess is Figure 9: the current step has accessed the
// location before, so the local entry and the current access form a
// two-access pattern whose atomicity is checked against the global
// single-access entries, and the pattern is propagated to the global
// space. A pattern is only formed when the two accesses' locksets are
// disjoint — they sit in different critical sections (Section 3.3) — or
// unconditionally under the strict-lock extension, which then records
// the common lockset in the pattern.
//
// Beyond the literal Figure 9, the current access is also checked in the
// interleaver role against the stored global patterns, exactly as in
// Figure 8. Without this, a pattern formed by a parallel step is missed
// when the tearing access arrives later in the trace from a step that
// already accessed the location (the Figure 8 checks only run on a
// step's first access); the oracle-based differential tests exposed the
// gap.
func (c *Optimized) handleNonFirstAccess(sp *localSpace, loc sched.Loc, cell *optCell, ls *localEntry, si dpst.NodeID, write bool, locks []uint64, localRead, localWrite bool) {
	if write {
		c.checkStoredPatterns(sp, loc, cell, pWW, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pRW, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pRR, si, Write, locks)
		c.checkStoredPatterns(sp, loc, cell, pWR, si, Write, locks)
		if localRead {
			if common := sp.intersect(ls.readLocks, locks); len(common) == 0 || c.strict {
				c.checkCandidate(sp, loc, cell, si, common, Read, Write, sW1, Write, ls.readTick)
				c.checkCandidate(sp, loc, cell, si, common, Read, Write, sW2, Write, ls.readTick)
				c.updatePattern(sp, cell, pRW, si, common)
				markDone(ls, locks, fRW)
			}
		}
		if localWrite {
			if common := sp.intersect(ls.writeLocks, locks); len(common) == 0 || c.strict {
				c.checkCandidate(sp, loc, cell, si, common, Write, Write, sW1, Write, ls.writeTick)
				c.checkCandidate(sp, loc, cell, si, common, Write, Write, sW2, Write, ls.writeTick)
				c.checkCandidate(sp, loc, cell, si, common, Write, Write, sR1, Read, ls.writeTick)
				c.checkCandidate(sp, loc, cell, si, common, Write, Write, sR2, Read, ls.writeTick)
				c.updatePattern(sp, cell, pWW, si, common)
				markDone(ls, locks, fWW)
			}
		}
		c.updateSingle(sp, cell, sW1, sW2, si, locks)
		if !localWrite {
			setLocalWrite(sp, ls, si, locks, cell.tick)
		}
		markDone(ls, locks, fW)
	} else {
		c.checkStoredPatterns(sp, loc, cell, pWW, si, Read, locks)
		if localRead {
			if common := sp.intersect(ls.readLocks, locks); len(common) == 0 || c.strict {
				c.checkCandidate(sp, loc, cell, si, common, Read, Read, sW1, Write, ls.readTick)
				c.checkCandidate(sp, loc, cell, si, common, Read, Read, sW2, Write, ls.readTick)
				c.updatePattern(sp, cell, pRR, si, common)
				markDone(ls, locks, fRR)
			}
		}
		if localWrite {
			if common := sp.intersect(ls.writeLocks, locks); len(common) == 0 || c.strict {
				c.checkCandidate(sp, loc, cell, si, common, Write, Read, sW1, Write, ls.writeTick)
				c.checkCandidate(sp, loc, cell, si, common, Write, Read, sW2, Write, ls.writeTick)
				c.updatePattern(sp, cell, pWR, si, common)
				markDone(ls, locks, fWR)
			}
		}
		c.updateSingle(sp, cell, sR1, sR2, si, locks)
		if !localRead {
			setLocalRead(sp, ls, si, locks, cell.tick)
		}
		markDone(ls, locks, fR)
	}
}
