// Package checker implements the paper's dynamic atomicity-violation
// analysis for task parallel programs.
//
// The analysis consumes the instrumented events of one execution — shared
// memory accesses, lock acquisitions/releases, and the series-parallel
// structure captured in the DPST — and reports every triple of accesses
// (A1, A2, A3) such that A1 and A3 are performed by one step node, A2 is
// performed by a logically parallel step node, and the three access types
// form a conflict-unserializable pattern (Figure 4 of the paper). Because
// parallelism is judged on the DPST rather than on the observed
// interleaving, violations that would only manifest in other schedules of
// the same input are detected from a single trace.
//
// Two checkers are provided. Basic keeps the full access history of every
// location (Figure 3): simple, and the reference for differential tests,
// but with metadata proportional to the number of dynamic accesses.
// Optimized is the paper's contribution (Figures 6-9): a fixed 12-entry
// global metadata space per location (single-access entries R1, R2, W1,
// W2 and two-access patterns RR, RW, WR, WW) plus a small per-task local
// space holding the current step's first read and write, used as an
// interim buffer until a second access forms a two-access pattern.
//
// Lock handling follows Section 3.3: local entries carry the lockset held
// at the access, locks are versioned per acquisition so re-acquiring a
// lock yields a fresh name, and a two-access pattern is only formed when
// the two accesses' locksets are disjoint (they sit in different critical
// sections).
package checker

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/sched"
)

// AccessType distinguishes reads from writes.
type AccessType uint8

// The two access types.
const (
	Read AccessType = iota
	Write
)

// String returns "R" or "W".
func (a AccessType) String() string {
	if a == Write {
		return "W"
	}
	return "R"
}

// Unserializable reports whether the access triple (a1, a2, a3) — a1 and
// a3 by one step node, a2 interleaved from a logically parallel step — is
// conflict-unserializable. Per Figure 4 the serializable triples are
// exactly RRR, RRW, and WRR: a read interleaver commutes past whichever
// endpoint is a read.
func Unserializable(a1, a2, a3 AccessType) bool {
	return !(a2 == Read && (a1 == Read || a3 == Read))
}

// identityDisjoint reports whether the interleaver's lockset shares no
// lock identity with the pattern's common lockset. Only the strict-lock
// extension produces non-empty common locksets; an interleaver holding
// the same mutex (any acquisition of it) cannot execute inside the
// pattern's critical section, so such triples are not violations.
func identityDisjoint(common, inter []uint64) bool {
	for _, x := range common {
		for _, y := range inter {
			if sched.LockIdentity(x) == sched.LockIdentity(y) {
				return false
			}
		}
	}
	return true
}

// spinLock is a tiny test-and-set lock for the very short per-cell
// critical sections of the optimized checker (a few hundred
// nanoseconds): under the producer/consumer ping-pong typical of hot
// shared locations, spinning briefly beats parking on a futex.
type spinLock struct {
	v atomic.Int32
}

func (l *spinLock) lock() {
	for i := 0; ; i++ {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

func (l *spinLock) unlock() {
	l.v.Store(0)
}

// Algorithm selects the checker variant.
type Algorithm uint8

// Available checker algorithms.
const (
	// AlgOptimized is the paper's fixed-metadata checker (Figures 6-9).
	AlgOptimized Algorithm = iota
	// AlgBasic is the unbounded access-history checker (Figure 3).
	AlgBasic
)

// String names the algorithm.
func (a Algorithm) String() string {
	if a == AlgBasic {
		return "basic"
	}
	return "optimized"
}

// Options configures a checker.
type Options struct {
	// Algorithm selects the basic or optimized checker.
	Algorithm Algorithm
	// Query answers may-happen-in-parallel queries; required.
	Query *dpst.Query
	// Reporter collects violations; a fresh one is created when nil.
	Reporter *Reporter
	// DisableAccessFilter turns off the batch deduplicator and, with it,
	// window elision (every buffered access dispatches), for ablation
	// benchmarks and differential testing. Meaningless outside batched
	// dispatch.
	DisableAccessFilter bool
	// StrictLockChecks enables the extension described in DESIGN.md:
	// two-access patterns whose accesses share a lock are still tracked
	// (with their common lockset) so that unsynchronized interleavers
	// that could split the critical section are reported. Off by default
	// to match the paper.
	StrictLockChecks bool
	// Gate arbitrates the checker's metadata allocations against a memory
	// budget and the fault-injection plane; nil admits everything. When
	// the gate denies a location's shadow cell, the checker degrades
	// gracefully: that location is no longer admitted to the analysis and
	// its accesses are ignored, counted as drops on the gate.
	Gate *chaos.Gate
	// Batch wraps the optimized checker in the step-granular batched
	// dispatcher: accesses are coalesced per task, deduplicated, and
	// dispatched at step/lock boundaries with the step node and lockset
	// read once per batch. Requires the event source to deliver the
	// structure and lock callbacks (the live scheduler and the trace
	// replayer both do). Ignored by the basic checker.
	Batch bool
	// DisableWindowElision keeps the batched dispatcher from installing
	// the handle-layer window-saturation cache (sched.Elide) into tasks:
	// every access then reaches the batch buffer and dedup table, for
	// ablation benchmarks and differential tests. It is also forced on
	// by event sources that must observe every access themselves (the
	// trace recorder). Meaningless outside batched dispatch.
	DisableWindowElision bool
	// Hub receives batch-flush observability events; nil is ignored.
	Hub *obs.Hub
}

// TaskState is the per-task view the checkers consume: the current step
// node, the lockset currently held, and a scratch slot for per-task
// metadata. *sched.Task implements it; the trace replayer provides a
// synthetic implementation.
type TaskState interface {
	// StepNode returns the step node covering the current access.
	StepNode() dpst.NodeID
	// Lockset returns the acquisition tokens currently held (read-only).
	Lockset() []uint64
	// LocalSlot returns a pointer to monitor-owned per-task storage.
	LocalSlot() *any
	// AccessState returns the three facts above in one call — the hot
	// path pays one indirect call instead of three. The results must be
	// exactly what the individual getters would have returned, in order
	// (LocalSlot, StepNode, Lockset).
	AccessState() (slot *any, step dpst.NodeID, locks []uint64)
}

// ElideHost is the optional TaskState extension of event sources whose
// handle layer carries a window-elision cache (*sched.Task and the
// trace replayer's task state both implement it). The batched checker
// type-asserts it once per task and installs a sched.Elide through the
// returned slot; task states without the interface simply never elide.
type ElideHost interface {
	// ElideSlot returns the address of the task's elision-cache pointer.
	ElideSlot() **sched.Elide
}

// Checker is the common interface of both algorithms; it extends
// sched.Monitor with result accessors and a TaskState-based entry point
// for offline trace replay.
type Checker interface {
	sched.Monitor
	// Access checks one instrumented access on behalf of ts.
	Access(ts TaskState, loc sched.Loc, write bool)
	// Reporter returns the violation collector.
	Reporter() *Reporter
	// Stats returns checker-side statistics.
	Stats() Stats
}

// Stats are the checker-side measurements of Table 1.
type Stats struct {
	// Locations is the number of unique instrumented locations accessed.
	Locations int64
	// FilterHits counts accesses the batch deduplicator skipped, plus
	// drained accesses the offer-once fast path answered; FilterMisses
	// counts drained accesses that ran the full dispatch. Both read zero
	// on the per-access (unbatched) path, with the deduplicator disabled,
	// and for the basic checker.
	FilterHits   int64
	FilterMisses int64
	// BatchFlushes counts drained per-task access batches and
	// BatchedAccesses the accesses dispatched through them; both are zero
	// unless batched dispatch is enabled.
	BatchFlushes    int64
	BatchedAccesses int64
	// WindowElisions counts accesses the handle layer elided through the
	// window-saturation cache — they never reached the batch buffer.
	// Zero unless batched dispatch is enabled with elision on.
	WindowElisions int64
}

// New creates a checker.
func New(opts Options) Checker {
	if opts.Query == nil {
		panic("checker: Options.Query is required")
	}
	if opts.Reporter == nil {
		opts.Reporter = NewReporter(0)
	}
	if opts.Algorithm == AlgBasic {
		return newBasic(opts)
	}
	if opts.Batch {
		return newBatched(opts)
	}
	return newOptimized(opts)
}

// shadow is the shadow memory mapping locations to metadata cells. The
// value type is generic over the two checkers' cell types.
//
// Location IDs are allocated densely by the runtime, so the map is an
// atomic two-level table rather than a locked hash map: a fixed top-level
// directory indexed by the location's high bits holds atomically
// published leaves, and each leaf holds atomically published cell
// pointers. The steady-state lookup — by far the hottest checker
// operation after the MHP query itself — is therefore two dependent
// atomic loads with no lock, no hashing, and no interface dispatch. The
// slow path keeps the bump allocator: one heap allocation per 256
// locations instead of one per location, which matters for workloads
// that touch each location only once (blackscholes).
type shadow[C any] struct {
	top   [shadowTopSize]atomic.Pointer[shadowLeaf[C]]
	count atomic.Int64
	// initC initializes a freshly allocated cell; may be nil when the
	// zero value is ready to use.
	initC func(*C)
	// gate arbitrates slow-path allocations (leaves, cell chunks, far
	// entries) against the memory budget and fault plane; nil admits
	// everything. cellBytes is one cell's size, charged per chunk.
	gate      *chaos.Gate
	cellBytes int64

	mu    sync.Mutex // guards the slow path: leaf creation and the allocator
	chunk []C
	used  int
	far   map[sched.Loc]*C // overflow for IDs beyond the direct-index range
}

type shadowLeaf[C any] struct {
	cells [shadowLeafSize]atomic.Pointer[C]
}

const (
	shadowChunk = 256

	shadowLeafBits = 12 // 4096 cells per leaf
	shadowLeafSize = 1 << shadowLeafBits
	shadowLeafMask = shadowLeafSize - 1

	// shadowTopSize bounds the directory: 1<<15 leaves of 1<<12 cells
	// direct-index 2^27 locations in 256 KiB of pointers; anything
	// beyond falls back to a locked overflow map.
	shadowTopSize = 1 << 15

	// shadowLeafBytes is the tracked cost of one leaf (a page of cell
	// pointers); farEntryBytes estimates one overflow-map entry.
	shadowLeafBytes = shadowLeafSize * 8
	farEntryBytes   = 48
)

// setGate attaches an allocation gate; must be called before any access.
func (s *shadow[C]) setGate(g *chaos.Gate) {
	s.gate = g
	var z C
	s.cellBytes = int64(unsafe.Sizeof(z))
}

func (s *shadow[C]) cell(loc sched.Loc) *C {
	if li := uint64(loc) >> shadowLeafBits; li < shadowTopSize {
		if leaf := s.top[li].Load(); leaf != nil {
			if c := leaf.cells[uint64(loc)&shadowLeafMask].Load(); c != nil {
				return c
			}
		}
	}
	return s.cellSlow(loc)
}

// cellSlow creates the location's cell (and any missing leaf). A nil
// return means the gate refused the allocation: the location is not
// admitted, and the caller must skip the access.
func (s *shadow[C]) cellSlow(loc sched.Loc) *C {
	s.mu.Lock()
	defer s.mu.Unlock()
	li := uint64(loc) >> shadowLeafBits
	if li >= shadowTopSize {
		if c, ok := s.far[loc]; ok {
			return c
		}
		if !s.gate.Allow(chaos.SiteShadowFar, farEntryBytes) {
			return nil
		}
		c := s.alloc()
		if c == nil {
			return nil
		}
		if s.far == nil {
			s.far = make(map[sched.Loc]*C)
		}
		s.far[loc] = c
		return c
	}
	leaf := s.top[li].Load()
	if leaf == nil {
		if !s.gate.Allow(chaos.SiteShadowLeaf, shadowLeafBytes) {
			return nil
		}
		leaf = new(shadowLeaf[C])
		s.top[li].Store(leaf)
	}
	slot := &leaf.cells[uint64(loc)&shadowLeafMask]
	if c := slot.Load(); c != nil {
		return c
	}
	c := s.alloc()
	if c == nil {
		return nil
	}
	// The atomic publish orders the cell's initialization before any
	// fast-path reader can observe the pointer.
	slot.Store(c)
	return c
}

// alloc bump-allocates and initializes a fresh cell; callers hold s.mu.
// Returns nil when the gate refuses a fresh chunk.
func (s *shadow[C]) alloc() *C {
	if s.used == len(s.chunk) {
		if !s.gate.Allow(chaos.SiteShadowChunk, shadowChunk*s.cellBytes) {
			return nil
		}
		s.chunk = make([]C, shadowChunk)
		s.used = 0
	}
	c := &s.chunk[s.used]
	s.used++
	if s.initC != nil {
		s.initC(c)
	}
	s.count.Add(1)
	return c
}
