package checker

import (
	"sync"
	"sync/atomic"

	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/sched"
)

// The step-granular access coalescer ("batched dispatch", see DESIGN.md
// §4.2). Instead of reading the task's step node and lockset on every
// instrumented access, each task buffers its accesses in a fixed-size
// batch and drains them through the optimized checker's dispatch core at
// step and lock boundaries. The per-access cost collapses to a buffer
// append plus a direct-mapped dedup probe; the task state (step node,
// lockset) is read once per batch window, and same-location repeats are
// deduplicated before they ever touch the shadow table.
//
// Correctness rests on two invariants:
//
//  1. Every access buffered in one batch window shares one step node and
//     one lockset. The window is closed — the batch flushed — on every
//     event that can change either: Spawn, Finish begin/end, Sync, task
//     end (step transitions) and Lock/Unlock (lockset transitions). The
//     live scheduler delivers these through sched.StructureObserver and
//     sched.Monitor; the trace replayer calls the BatchFlusher hooks at
//     the same points. Buffer overflow also flushes, without closing the
//     window (the regime is unchanged).
//
//  2. The deduplicator skips an access only when it is provably
//     redundant: an access of type T is dropped only after an earlier
//     access of type T in the same window ran (or will run, earlier in
//     this batch) as a repeat of its own type, and a first write
//     re-enables reads (and vice versa), because it newly forms an RW/WR
//     pattern. Every skipped access is therefore a re-run whose offers
//     and checks have all already been made under an identical (step,
//     lockset) regime; DESIGN.md §4.2 gives the full argument.
//
//  3. The handle layer's window-elision cache (sched.Elide, installed
//     through the optional ElideHost interface) only ever holds facts
//     the deduplicator published through Mirror under the current
//     window generation, and the generation is advanced at exactly the
//     boundaries that invalidate the deduplicator's epoch-scoped
//     redundancy words (lock and step flushes; overflow flushes leave
//     both alive). An elided access is therefore one the deduplicator
//     itself would have skipped — DESIGN.md §4.3 gives the full
//     argument.
//
// Flushing at the boundary also preserves per-task dispatch order, and
// on a serial schedule every step's accesses are contiguous in the
// trace, so batched dispatch order equals trace order minus the skipped
// no-ops — reports are byte-identical to unbatched dispatch there (the
// batch differential suite asserts this, including provenance).

const (
	// batchCap is the per-task access buffer: big enough to cover a
	// typical step's burst, small enough that per-task state stays a few
	// KiB (buffers are pooled across tasks, so short-lived tasks do not
	// churn the allocator).
	batchCap = 256

	// The dedup table shares the handle layer's elision-cache geometry
	// (both direct-mapped by loc&mask with the same mask), which is what
	// makes the mirror invariant per-slot: slot i of the elision cache
	// only ever describes the location resident in dedup slot i, so a
	// dedup eviction and the colliding tenant's first publish overwrite
	// the same elision slot. See invariant 3 above and DESIGN.md §4.3.
	batchDedupBits = sched.ElideBits
	batchDedupSize = 1 << batchDedupBits
	batchDedupMask = batchDedupSize - 1

	// Adaptive retirement of the redundancy layer: once the current step
	// has fronted batchRetireMin accesses, the redundancy words and the
	// elision cache are retired for the rest of the step if they saved
	// fewer than 1/batchRetireRatio of them. The scope is
	// the step because that is where access mixes are homogeneous — an
	// initialization loop streams, a merge pass repeats — and a long
	// streaming step must neither pay the maintenance forever nor
	// disable the layer for the repeat-heavy steps after it (the step
	// flush re-arms everything). The ratio is low because a front-end
	// save skips a full dispatchEntry walk (tens of ns) while the
	// per-access maintenance costs a few, so the layer pays for itself
	// down to a few-percent yield. The entry cache half of the dedup
	// table (loc → localEntry) is never retired: it replaces a hash probe
	// with one compare and stays profitable regardless of repeat rate.
	batchRetireMin   = 1 << 12
	batchRetireRatio = 32
)

// batchAccess is one buffered access: the resolved local entry plus the
// location and kind packed in one word.
type batchAccess struct {
	e    *localEntry
	locW uint64 // loc<<1 | write
}

// batchDedupEntry is one direct-mapped dedup slot. bits is the epoch-
// scoped redundancy word (filtR/filtW), seen the step-scoped "this step
// already dispatched a read/write here" pair that decides whether the
// next dispatch runs as a repeat of its type. Both
// are invalidated lazily by generation stamps so neither flushes nor
// task reuse ever sweep the table: egen advances on every lockset or
// step transition, sgen only on step transitions (a step's repeat facts
// survive its lock transitions, exactly as localEntry.readStep/
// writeStep do). The cached e pointer stays valid across pooled task
// reuse because the batchSpace keeps its localSpace for life — see
// reset.
type batchDedupEntry struct {
	loc  sched.Loc // 0 = empty (location IDs start at 1)
	e    *localEntry
	egen uint64
	sgen uint64
	bits uint8
	seen uint8
}

// Redundancy word bits. filtR means a further read under the same
// (step, lockset) window is provably redundant, filtW the same for
// writes. A bit is set only after an access of that type ran as a
// repeat — with its own local entry already recorded — so every pattern
// kind the current step can form has been offered before the type
// becomes skippable. A step's first write clears filtR (the next read
// newly forms a WR pattern) and its first read clears filtW (the next
// write newly forms an RW pattern); see DESIGN.md §4.2.
const (
	filtR uint8 = 1 << iota
	filtW
)

// seen bits of batchDedupEntry (distinct from filtR/filtW only in role).
const (
	seenR uint8 = 1 << iota
	seenW
)

// filterCounters holds one batch space's dedup hit/miss counters,
// registered with the checker once per pooled space. The fields are
// atomic so Stats can be read live, mid-run, by Session.Snapshot; each
// counter is written only by the goroutine of the task currently owning
// the space, so the adds are uncontended.
type filterCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// batchSpace is one task's coalescer state, kept in Task.Local. It owns
// the task's inner localSpace, so the optimized dispatch core sees
// exactly the per-task metadata it would under unbatched operation.
type batchSpace struct {
	sp   *localSpace
	ctr  *filterCounters
	hint uint64 // shard hint for the checker-wide striped counters

	n        int
	step     dpst.NodeID // captured at the window's first buffered access
	locks    []uint64
	captured bool

	egen, sgen           uint64
	pendHits, pendMisses int64

	// Retirement bookkeeping (see batchRetireMin): probeTotal counts
	// accesses fronted by the current step, probeSaved the ones the
	// redundancy words or the elision cache answered. Step flushes (and
	// reset) clear all three — retirement never outlives the step that
	// earned it.
	retired    bool
	probeTotal int64
	probeSaved int64
	// nDirect counts retired-mode accesses dispatched around the buffer,
	// folded into the batched-access counter at the next flush.
	nDirect int64

	// elide is the window-saturation cache mirrored into the owning
	// task's handle layer (see the mirror invariant in Access); eslot is
	// where it was installed, nil when the task state is no ElideHost or
	// elision is off. Living inside the pooled batchSpace, the cache
	// costs no per-task allocation; Invalidate on reuse kills the
	// previous task's facts.
	elide sched.Elide
	eslot **sched.Elide

	buf   [batchCap]batchAccess
	dedup [batchDedupSize]batchDedupEntry
}

// reset prepares a pooled batchSpace for a new task. Task churn is O(1):
// the buffer needs no clearing (n gates it), the dedup table none (the
// task-end flush bumped egen and sgen, so every slot's seen/bits words
// are already generation-stale), and the localSpace is kept for life.
//
// Keeping the localSpace — the location table, entry arena, and lockset
// arenas — across tasks is the heart of the coalescer's task-churn
// amortization: recursive kernels spawn far more tasks than they touch
// distinct locations, and rebuilding loc → entry metadata per task was
// the dominant cost of checking them. Reuse is output-invisible because
// a local entry is self-invalidating across tasks: step node IDs are
// never reused, so dispatchEntry's readStep/writeStep == si tests see a
// previous task's entry exactly as a fresh one (the per-step locksets
// and ticks are only consulted under those same tests), the report
// buffer dedups by a global key the reporter re-dedups anyway, and the
// Par front cache is keyed by global node pairs.
func (bs *batchSpace) reset() {
	bs.n = 0
	bs.captured = false
	bs.pendHits, bs.pendMisses = 0, 0
	bs.retired = false
	bs.probeTotal, bs.probeSaved = 0, 0
	bs.nDirect = 0
}

// Batched wraps the optimized checker in the step-granular coalescer.
// It implements Checker, and its structure-observer callbacks are the
// flush points; constructing it without wiring those callbacks (see
// Options.Batch) would silently dispatch accesses under stale state.
type Batched struct {
	inner *Optimized
	hub   *obs.Hub
	// dedupOff disables the batch deduplicator (every buffered access
	// dispatches): Options.DisableAccessFilter, for ablations and
	// differential tests of pure batching.
	dedupOff bool
	// elideOff keeps the window-saturation cache out of tasks: set by
	// Options.DisableWindowElision, and implied by dedupOff (with the
	// deduplicator off no redundancy word ever saturates, so the cache
	// could never hit — installing it would only cost the probe).
	elideOff bool

	nextHint atomic.Uint64
	pool     sync.Pool

	// counters tracks every batch space's dedup counters; registration
	// happens once per pooled space, so the lock is cold.
	countersMu sync.Mutex
	counters   []*filterCounters

	flushes  obs.Striped
	accesses obs.Striped
	elisions obs.Striped
}

// newBatched builds the batched dispatcher over a fresh optimized
// checker, whose dispatch core drains the batches.
func newBatched(opts Options) *Batched {
	return &Batched{
		inner:    newOptimized(opts),
		hub:      opts.Hub,
		dedupOff: opts.DisableAccessFilter,
		elideOff: opts.DisableWindowElision || opts.DisableAccessFilter,
	}
}

// Reporter implements Checker.
func (b *Batched) Reporter() *Reporter { return b.inner.Reporter() }

// Stats implements Checker. The flush counts live in the hub when the
// session wired one (flush counts each drain into a single sink) and in
// the checker-local striped counters otherwise (hub-less replay).
func (b *Batched) Stats() Stats {
	st := b.inner.Stats()
	b.countersMu.Lock()
	for _, ctr := range b.counters {
		st.FilterHits += ctr.hits.Load()
		st.FilterMisses += ctr.misses.Load()
	}
	b.countersMu.Unlock()
	if b.hub != nil {
		st.BatchFlushes = b.hub.Count(obs.EventBatchFlush)
		st.BatchedAccesses = b.hub.Count(obs.EventBatchedAccess)
		st.WindowElisions = b.hub.Count(obs.EventWindowElision)
	} else {
		st.BatchFlushes = b.flushes.Load()
		st.BatchedAccesses = b.accesses.Load()
		st.WindowElisions = b.elisions.Load()
	}
	return st
}

// registerCounters adds one batch space's counters to the registry
// summed by Stats. Called once per pooled space (cold).
func (b *Batched) registerCounters(ctr *filterCounters) {
	b.countersMu.Lock()
	b.counters = append(b.counters, ctr)
	b.countersMu.Unlock()
}

// newSpace creates (or recycles) the task's batch state on the task's
// first access. This is also where the window-elision front end is
// wired: when ts's handle layer hosts an elision cache and elision is
// on, the space's cache — its previous owner's facts freshly
// invalidated — is installed into the task, and from then on saturated
// repeats never reach Access at all.
func (b *Batched) newSpace(ts TaskState, slot *any) *batchSpace {
	bs, _ := b.pool.Get().(*batchSpace)
	if bs == nil {
		bs = &batchSpace{ctr: &filterCounters{}}
		b.registerCounters(bs.ctr)
		bs.sp = b.inner.makeSpace()
		// The counter-shard hint is per-space, not per-task: a pooled
		// space keeps its shard, which spreads concurrent flushers just
		// as well without an atomic per task.
		bs.hint = b.nextHint.Add(1)
	} else {
		bs.reset()
	}
	bs.eslot = nil
	if !b.elideOff {
		if host, ok := ts.(ElideHost); ok {
			bs.elide.Invalidate()
			bs.eslot = host.ElideSlot()
			*bs.eslot = &bs.elide
		}
	}
	*slot = bs
	return bs
}

// Access implements Checker: it buffers the access, deduplicating
// provable repeats, and flushes on overflow. ts is consulted for the
// task slot on every call but for the step node and lockset only once
// per batch window — the amortization this whole layer exists for.
func (b *Batched) Access(ts TaskState, loc sched.Loc, write bool) {
	slot := ts.LocalSlot()
	bs, ok := (*slot).(*batchSpace)
	if !ok {
		bs = b.newSpace(ts, slot)
	}
	de := &bs.dedup[uint64(loc)&batchDedupMask]
	var ls *localEntry
	var fresh bool
	if de.loc == loc {
		if de.sgen != bs.sgen {
			de.sgen, de.egen = bs.sgen, bs.egen
			de.seen, de.bits = 0, 0
		} else if de.egen != bs.egen {
			de.egen = bs.egen
			de.bits = 0
		}
		ls = de.e
	} else {
		// Install (evicting any conflicting location: its facts are lost,
		// which only costs extra dispatches, never soundness).
		if ls = bs.sp.m.get(loc); ls == nil {
			ls = b.inner.newEntry(bs.sp, loc)
		}
		*de = batchDedupEntry{loc: loc, e: ls, egen: bs.egen, sgen: bs.sgen}
		fresh = true
	}
	if bs.retired {
		// The current step retired the redundancy layer: it is streaming,
		// so nearly every access would buffer only to dispatch at the next
		// drain anyway. Dispatch it now, around the buffer — the buffer is
		// empty (retirement is decided during a drain) and stays empty
		// until the step flush re-arms buffering, so dispatch order is
		// preserved; a one-access window is just the smallest legal batch.
		if !bs.captured {
			_, bs.step, bs.locks = ts.AccessState()
			bs.captured = true
		}
		b.inner.dispatchEntry(bs.sp, ls, loc, bs.step, bs.locks, write)
		bs.nDirect++
		return
	}
	if !b.dedupOff {
		bit, sbit := filtR, seenR
		if write {
			bit, sbit = filtW, seenW
		}
		if de.bits&bit != 0 {
			bs.pendHits++
			// Mirror invariant, re-priming arm: the handle layer's elision
			// cache holds a (loc, gen, bits) fact only when the dedup slot
			// holds the same fact under the current window. A dedup hit
			// that still reached us means the elision entry was lost (a
			// colliding location overwrote it) — restore it so further
			// repeats stop in the handle layer instead.
			if bs.eslot != nil {
				bs.elide.Mirror(loc, de.bits)
			}
			return
		}
		// Maintain the redundancy word at buffer time: dispatch order
		// equals buffer order, so "the earlier same-type access will have
		// run as a repeat" is decidable here. A repeat of its own type
		// makes the type redundant for the rest of the epoch; a first
		// access of a type re-enables the other type (it newly forms an
		// RW/WR pattern).
		//
		// Mirror invariant, tracking arm: publish the word whenever it
		// changes — downward moves included, because a first write
		// re-enables reads (and vice versa) and a stale saturated bit in
		// the handle layer would elide an access that newly forms an
		// RW/WR pattern. An unchanged word needs no publish, with one
		// exception: a fresh (re)install publishes its zero word so that
		// a fact the evicted-and-returned location saturated earlier in
		// this window (still resident in the cache, whose slot the
		// colliding tenant never overwrote) cannot outlive the re-enabling
		// access that just reset the slot. Mirror's resident-only guard
		// makes that publish free for the common first touch.
		if de.seen&sbit != 0 {
			de.bits |= bit // always a change: bit was clear or we'd have hit
			if bs.eslot != nil {
				bs.elide.Mirror(loc, de.bits)
			}
		} else {
			de.seen |= sbit
			old := de.bits
			if write {
				de.bits &^= filtR
			} else {
				de.bits &^= filtW
			}
			if bs.eslot != nil && (de.bits != old || fresh) {
				bs.elide.Mirror(loc, de.bits)
			}
		}
	}
	if !bs.captured {
		_, bs.step, bs.locks = ts.AccessState()
		bs.captured = true
	}
	bs.buf[bs.n] = batchAccess{e: ls, locW: uint64(loc)<<1 | b2u(write)}
	bs.n++
	if bs.n == batchCap {
		b.flush(bs, flushOverflow)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Flush kinds: what regime boundary closed the window.
const (
	// flushOverflow drains a full buffer mid-window: the (step, lockset)
	// regime is unchanged, so dedup facts stay valid.
	flushOverflow = iota
	// flushLocks is a lockset transition: epoch-scoped redundancy dies,
	// the step's repeat facts survive.
	flushLocks
	// flushStep is a step transition: everything dies.
	flushStep
)

// flush drains the buffer through the optimized dispatch core under the
// window's captured state, folds the pending dedup counters into the
// live-readable atomics, and advances the dedup generations.
func (b *Batched) flush(bs *batchSpace, kind int) {
	// pendHits at entry are the front-end dedup hits of the closing
	// window (the dispatch loop below adds fast-path skips to the same
	// counter, which belong to the inner checker, not the front end);
	// drained is what actually dispatched. Both feed the retirement
	// yield accounting after the drain.
	frontHits := bs.pendHits
	drained := int64(bs.n)
	if bs.n > 0 {
		sp, si, locks := bs.sp, bs.step, bs.locks
		for i := 0; i < bs.n; i++ {
			a := &bs.buf[i]
			outcome := b.inner.dispatchEntry(sp, a.e, sched.Loc(a.locW>>1), si, locks, a.locW&1 != 0)
			if !b.dedupOff && !bs.retired {
				switch outcome {
				case dispatchRan:
					bs.pendMisses++
				case dispatchSkipped:
					bs.pendHits++
				}
			}
		}
		if b.hub != nil {
			b.hub.Note(obs.EventBatchFlush, bs.hint)
			b.hub.NoteN(obs.EventBatchedAccess, bs.hint, int64(bs.n))
		} else {
			b.flushes.Add(bs.hint, 1)
			b.accesses.Add(bs.hint, int64(bs.n))
		}
		bs.n = 0
	}
	// The captured (step, lockset) regime is re-read on the next access:
	// boundary flushes change it, and a retired step's direct dispatches
	// rely on it without ever filling the buffer.
	bs.captured = false
	if bs.nDirect != 0 {
		if b.hub != nil {
			b.hub.NoteN(obs.EventBatchedAccess, bs.hint, bs.nDirect)
		} else {
			b.accesses.Add(bs.hint, bs.nDirect)
		}
		bs.nDirect = 0
	}
	switch kind {
	case flushLocks:
		bs.egen++
		// The handle layer's cache mirrors epoch-scoped redundancy words,
		// so it dies exactly when they do: on lock and step boundaries,
		// never on overflow (an overflow leaves the regime — and thus
		// every mirrored fact — intact, which is what lets elision keep
		// working through the long windows it exists for).
		bs.elide.Invalidate()
	case flushStep:
		bs.egen++
		bs.sgen++
		bs.elide.Invalidate()
	}
	elided := int64(bs.elide.TakeHits())
	if elided != 0 {
		if b.hub != nil {
			b.hub.NoteN(obs.EventWindowElision, bs.hint, elided)
		} else {
			b.elisions.Add(bs.hint, elided)
		}
	}
	if !b.dedupOff {
		if !bs.retired {
			bs.probeTotal += drained + frontHits + elided
			bs.probeSaved += frontHits + elided
			if bs.probeTotal >= batchRetireMin && bs.probeSaved < bs.probeTotal/batchRetireRatio {
				// The step this space is fronting is streaming: the
				// redundancy words and the elision cache cost every access
				// and almost never pay. Retire both for the rest of the
				// step; uninstalling the elision cache from the handle
				// layer stops even its probe (bs.eslot keeps the slot so
				// the step flush can re-arm it).
				bs.retired = true
				if bs.eslot != nil {
					*bs.eslot = nil
				}
			}
		}
		if kind == flushStep {
			// A new step is a new mix: re-arm the layer and restart the
			// yield measurement.
			if bs.retired {
				bs.retired = false
				if bs.eslot != nil {
					*bs.eslot = &bs.elide
				}
			}
			bs.probeTotal, bs.probeSaved = 0, 0
		}
	}
	if bs.pendHits != 0 {
		bs.ctr.hits.Add(bs.pendHits)
		bs.pendHits = 0
	}
	if bs.pendMisses != 0 {
		bs.ctr.misses.Add(bs.pendMisses)
		bs.pendMisses = 0
	}
}

// FlushStep drains ts's batch at a step transition. Exported for the
// trace replayer (the BatchFlusher hooks); the live scheduler reaches it
// through the StructureObserver callbacks below.
func (b *Batched) FlushStep(ts TaskState) {
	if bs, ok := (*ts.LocalSlot()).(*batchSpace); ok {
		b.flush(bs, flushStep)
	}
}

// FlushLockChange drains ts's batch at a lockset transition.
func (b *Batched) FlushLockChange(ts TaskState) {
	if bs, ok := (*ts.LocalSlot()).(*batchSpace); ok {
		b.flush(bs, flushLocks)
	}
}

// BatchFlusher is the hook interface an offline event source (the trace
// replayer) uses to close batch windows at the boundaries the live
// scheduler signals through sched.Monitor/StructureObserver. FlushStep
// must be called before any event that moves the task to a new step
// region, FlushLockChange before any lockset mutation — in particular
// before a release pops the lockset slice the window captured.
type BatchFlusher interface {
	FlushStep(ts TaskState)
	FlushLockChange(ts TaskState)
}

// OnAccess implements sched.Monitor.
func (b *Batched) OnAccess(t *sched.Task, loc sched.Loc, write bool) {
	b.Access(t, loc, write)
}

// OnAcquire implements sched.Monitor: Lock has already pushed the new
// token (appending never disturbs the window's captured lockset
// prefix), so the batch drains under the pre-acquisition regime here.
func (b *Batched) OnAcquire(t *sched.Task, _ *sched.Mutex) {
	b.FlushLockChange(t)
}

// OnRelease implements sched.Monitor. Unlock notifies before popping the
// token in place — the one mutation that would corrupt the captured
// lockset — so the flush must (and does) complete here, synchronously.
func (b *Batched) OnRelease(t *sched.Task, _ *sched.Mutex) {
	b.FlushLockChange(t)
}

// OnSpawn implements sched.StructureObserver: the parent has entered a
// new step region; its buffered accesses belong to the captured
// pre-spawn step and drain before the child can run.
func (b *Batched) OnSpawn(parent *sched.Task, _ int32) {
	b.FlushStep(parent)
}

// OnFinishBegin implements sched.StructureObserver.
func (b *Batched) OnFinishBegin(t *sched.Task) {
	b.FlushStep(t)
}

// OnFinishEnd implements sched.StructureObserver (Finish and Sync both
// signal it after the join).
func (b *Batched) OnFinishEnd(t *sched.Task) {
	b.FlushStep(t)
}

// OnTaskEnd implements sched.StructureObserver: the task's final flush.
// The drained batchSpace is recycled for future tasks, localSpace and
// all — the per-task metadata it holds needs no sweeping because it is
// step-stamped, and step IDs die with their task (see reset).
func (b *Batched) OnTaskEnd(t *sched.Task) {
	slot := t.LocalSlot()
	bs, ok := (*slot).(*batchSpace)
	if !ok {
		return
	}
	b.flush(bs, flushStep)
	if bs.eslot != nil {
		*bs.eslot = nil
		bs.eslot = nil
	}
	*slot = nil
	b.pool.Put(bs)
}
