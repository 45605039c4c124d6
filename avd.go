// Package avd is an atomicity-violation detector for task parallel
// programs, reproducing "Atomicity Violation Checker for Task Parallel
// Programs" (Yoga & Nagarakatte, CGO 2016) in pure Go.
//
// A Session couples a work-stealing fork-join runtime (the Intel TBB
// stand-in) with a dynamic analysis. Programs are written against the
// structured task API — Task.Spawn, Task.Finish, ParallelFor — and
// declare the shared state whose step-level atomicity matters through
// instrumented variables (IntVar, FloatVar, IntArray, FloatArray) and
// instrumented Mutexes; this plays the role of the paper's type-qualifier
// annotations and LLVM instrumentation pass.
//
// The default checker maintains the paper's dynamic program structure
// tree (DPST) and fixed 12-entry-per-location access-history metadata to
// report every conflict-unserializable access triple that is feasible in
// ANY schedule of the given input, not just the observed one. A
// reimplementation of the Velodrome checker (in-trace detection only) is
// included as the evaluation baseline.
//
//	s := avd.NewSession(avd.Options{})
//	defer s.Close()
//	x := s.NewIntVar("X")
//	s.Run(func(t *avd.Task) {
//	    x.Store(t, 10)
//	    t.Finish(func(t *avd.Task) {
//	        t.Spawn(func(t *avd.Task) { x.Add(t, 1) }) // read + write of X
//	        t.Spawn(func(t *avd.Task) { x.Store(t, 7) })
//	    })
//	})
//	for _, v := range s.Report().Violations { fmt.Println(v) }
package avd

import (
	"context"
	"fmt"
	"sync"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/trace"
)

// Task is a dynamic task of the fork-join computation; see the sched
// runtime for the full method set (Spawn, Finish, Parallel, Access).
type Task = sched.Task

// Mutex is an instrumented lock whose acquisitions are versioned for the
// checker's lock handling.
type Mutex = sched.Mutex

// Loc identifies an instrumented shared-memory location.
type Loc = sched.Loc

// Violation is a detected atomicity violation (an unserializable access
// triple feasible in some schedule of this input).
type Violation = checker.Violation

// UsageError is the typed panic value raised on API misuse: using a
// session after Close, or using a handle (variable, mutex, task) created
// by one session from another.
type UsageError = sched.UsageError

// TaskPanic is one recovered task panic: the crashing task, the panic
// value, and the stack at recovery. See Report.TaskPanics.
type TaskPanic = sched.TaskPanic

// InjectedPanic is the panic value of a chaos-injected task crash, so
// tests can tell injected failures from genuine ones.
type InjectedPanic = chaos.InjectedPanic

// ChaosStats counts the faults the session's chaos plane has injected.
type ChaosStats = chaos.PlaneStats

// Trace is a recorded execution trace; see Options.RecordTrace,
// Session.RecordedTrace, and ReplayTrace.
type Trace = trace.Trace

// EventCounts are the live observability event totals of a session; see
// Session.Snapshot.
type EventCounts = obs.Counts

// Provenance explains a reported violation: the DPST paths of both
// steps, the locksets held at each access, and whether the
// unserializable order was observed in this schedule or inferred for
// another one. See Violation.Prov and Violation.Explain.
type Provenance = checker.Provenance

// DropEvent describes one shed unit of analysis work: a violation
// refused by Options.MaxViolations (Kind "violation") or a metadata
// allocation denied by the memory budget or chaos plane (Kind names the
// allocation site, e.g. "shadow-leaf"; Bytes is the refused request).
type DropEvent struct {
	Kind  string
	Bytes int64
}

// Observer receives live analysis events from a running session. All
// callbacks run synchronously on the goroutine that produced the event,
// with no session locks that matter to the caller held — but they MUST
// be cheap, non-blocking, and must not call back into the owning
// Session (Report, Snapshot, Close, or any instrumented handle): the
// violation callback fires from inside the checker's per-location
// critical section. cmd/avd-lint's observer pass flags such re-entrant
// calls statically. Nil fields are simply skipped; a nil
// Options.Observer leaves the instrumentation hot path untouched.
type Observer struct {
	// OnViolation fires once per locally-new admitted violation (a
	// triple reported concurrently by several tasks may fire more than
	// once, matching Reporter admission granularity).
	OnViolation func(Violation)
	// OnDrop fires when the session sheds work instead of allocating.
	OnDrop func(DropEvent)
	// OnSaturation fires exactly once, on the first drop of any kind.
	OnSaturation func()
	// OnTaskPanic fires for every recovered task panic (Options.
	// RecoverPanics).
	OnTaskPanic func(TaskPanic)
}

// ParallelFor executes body(i) for i in [lo, hi) with recursive range
// bisection and grain-sized leaves, like tbb::parallel_for.
func ParallelFor(t *Task, lo, hi, grain int, body func(*Task, int)) {
	sched.ParallelFor(t, lo, hi, grain, body)
}

// ParallelRange is the blocked-range form of ParallelFor: each leaf task
// receives a whole [lo, hi) chunk of at most grain iterations, like
// tbb::parallel_for over a blocked_range.
func ParallelRange(t *Task, lo, hi, grain int, body func(*Task, int, int)) {
	sched.ParallelRange(t, lo, hi, grain, body)
}

// CheckerKind selects the dynamic analysis attached to a session.
type CheckerKind int

// Available checkers.
const (
	// CheckerOptimized is the paper's fixed-metadata DPST checker.
	CheckerOptimized CheckerKind = iota
	// CheckerBasic is the unbounded access-history reference checker.
	CheckerBasic
	// CheckerVelodrome is the in-trace Velodrome baseline.
	CheckerVelodrome
	// CheckerNone runs without any instrumentation or DPST: the
	// uninstrumented baseline of the evaluation.
	CheckerNone
)

// String names the configuration as in the paper's figures.
func (k CheckerKind) String() string {
	switch k {
	case CheckerOptimized:
		return "our-prototype"
	case CheckerBasic:
		return "basic"
	case CheckerVelodrome:
		return "velodrome"
	case CheckerNone:
		return "baseline"
	default:
		return fmt.Sprintf("checker(%d)", int(k))
	}
}

// Layout selects the DPST memory layout (the Figure 14 ablation).
type Layout = dpst.Layout

// DPST layouts.
const (
	LayoutArray  = dpst.ArrayLayout
	LayoutLinked = dpst.LinkedLayout
)

// MHPMode selects how may-happen-in-parallel queries are answered.
type MHPMode int

// Available MHP modes.
const (
	// MHPLabels (the default) compares per-node path labels stamped at
	// DPST construction: O(LCA depth) per query, no locks, no shared
	// cache (DePa-style; see internal/dpst/labels.go).
	MHPLabels MHPMode = iota
	// MHPCachedWalk performs the LCA tree walk with the sharded result
	// cache — the paper's Section 4 configuration, kept as a selectable
	// ablation and for faithful Table 1 uniqueness statistics.
	MHPCachedWalk
	// MHPWalk recomputes the tree walk on every query (the Figure 14
	// no-cache ablation).
	MHPWalk
)

// String names the mode as used in the harness configurations.
func (m MHPMode) String() string {
	switch m {
	case MHPLabels:
		return "labels"
	case MHPCachedWalk:
		return "cached-walk"
	case MHPWalk:
		return "walk"
	default:
		return fmt.Sprintf("mhp(%d)", int(m))
	}
}

// Options configures a Session or a Replayer. The zero value is the
// default configuration: the optimized checker on an array DPST,
// answering MHP queries by path labels, with GOMAXPROCS workers.
type Options struct {
	// Workers is the worker-thread count; 0 means GOMAXPROCS.
	Workers int
	// Checker picks the analysis; default CheckerOptimized.
	Checker CheckerKind
	// Layout picks the DPST layout; default LayoutArray.
	Layout Layout
	// MHP picks the may-happen-in-parallel mechanism; default MHPLabels.
	MHP MHPMode
	// StrictLockChecks enables the extension that reports pairs inside
	// one critical section torn by unsynchronized parallel accesses
	// (see DESIGN.md); off reproduces the paper exactly.
	StrictLockChecks bool
	// DisableAccessFilter turns off the batch deduplicator under Batch
	// (DESIGN.md §4.2): every buffered access dispatches, and window
	// elision is off too, for ablation measurements and differential
	// testing. Reported violations are identical either way.
	// Meaningless without Batch.
	DisableAccessFilter bool
	// Batch enables step-granular batched dispatch (DESIGN.md §4.2): the
	// optimized checker coalesces each task's accesses in a fixed-size
	// per-task buffer, deduplicates provable repeats, and drains the
	// batch at step and lock boundaries with the step node and lockset
	// read once per batch instead of once per access.
	// Reported violations are identical to unbatched operation; on a
	// serial schedule the reports are byte-identical. Only meaningful
	// with CheckerOptimized; other checkers ignore it.
	Batch bool
	// DisableWindowElision turns off the handle layer's window-elision
	// front end under Batch (DESIGN.md §4.3): the per-task cache that
	// answers window-saturated repeat accesses before they touch the
	// batch buffer or dedup table. On by default with Batch; disable for
	// ablation measurements and differential testing. Reported
	// violations are identical either way. Sessions that record a trace
	// (RecordTrace) force it off so the recorder observes every access —
	// replaying such a trace with Batch re-enables elision and still
	// reproduces the live report, because elision is output-invisible.
	DisableWindowElision bool
	// ReporterLimit caps retained violation details (0 = default).
	ReporterLimit int
	// RecordTrace additionally captures the execution into a trace
	// (Session.RecordedTrace) that can be re-analyzed offline with
	// ReplayTrace — record once, analyze many.
	RecordTrace bool
	// MemoryBudget bounds the tracked bytes of analysis metadata (shadow
	// table, metadata cells, path-label arenas, LCA cache). 0 means
	// unlimited. When the budget is exhausted the session degrades
	// gracefully instead of growing or failing: new locations stop being
	// admitted, labels fall back to tree walks, the LCA cache stops
	// filling, and the Report carries Saturated plus per-layer drop
	// counts. The budget is never exceeded in tracked bytes.
	MemoryBudget int64
	// MaxViolations caps the distinct violations admitted by the
	// reporter (0 = uncapped); excess violations are counted in
	// Report.Drops.Violations and set Report.Saturated.
	MaxViolations int64
	// RecoverPanics keeps Run from re-raising panics that escape tasks:
	// crashed tasks are recorded in Report.TaskPanics, surviving tasks
	// still join, and the partial violation report stands.
	RecoverPanics bool
	// Chaos enables deterministic fault injection (forced steals,
	// bounded delays, task panics, simulated allocation failures) for
	// robustness testing; nil disables it.
	Chaos *ChaosConfig
	// Observer streams live analysis events (violations, drops,
	// saturation, task panics) to the caller while the program runs —
	// or, for a Replayer, while the trace replays; nil (the default)
	// keeps the hot path free of observer overhead.
	Observer *Observer
}

// ChaosConfig parameterizes the session's deterministic fault-injection
// plane. Probabilities are in [0, 1]; zero disables that fault class.
type ChaosConfig struct {
	// Seed selects the deterministic decision streams.
	Seed int64
	// StealProb is the probability a freshly spawned task is diverted to
	// the scheduler's shared overflow queue — a forced steal.
	StealProb float64
	// DelayProb is the probability a task's start is delayed by a
	// bounded number of scheduling yields.
	DelayProb float64
	// MaxDelaySpins bounds one injected delay (default 64 yields).
	MaxDelaySpins int
	// PanicProb is the probability a task's body is replaced by an
	// injected panic (the root task is exempt).
	PanicProb float64
	// AllocFailProb is the probability a gated metadata allocation is
	// denied, simulating memory pressure.
	AllocFailProb float64
}

// Session owns a runtime, an analysis, and the instrumented state
// handles created through it.
type Session struct {
	engine
	sch *sched.Scheduler
	rec *trace.Recorder
}

// NewSession creates a session and starts its worker pool; Close it when
// done.
func NewSession(opts Options) *Session {
	// The recorder tees off the same Monitor the checker serves, so a
	// session that records must not elide: an access skipped in the
	// handle layer would vanish from the trace.
	opts.DisableWindowElision = opts.DisableWindowElision || opts.RecordTrace
	s := &Session{engine: newEngine(opts)}
	var mon sched.Monitor
	switch {
	case s.chk != nil:
		mon = s.chk
	case s.velo != nil:
		mon = s.velo
	}
	if opts.RecordTrace {
		s.rec = trace.NewRecorder()
		if mon == nil {
			mon = s.rec
		} else {
			mon = &teeMonitor{a: mon, b: s.rec}
		}
	}
	ob := opts.Observer
	s.sch = sched.New(sched.Options{
		Workers:       opts.Workers,
		Tree:          s.tree,
		Monitor:       mon,
		Chaos:         s.plane,
		RecoverPanics: opts.RecoverPanics,
		OnPanic: func(p sched.TaskPanic) {
			s.hub.Note(obs.EventTaskPanic, uint64(p.Task))
			if ob != nil && ob.OnTaskPanic != nil {
				ob.OnTaskPanic(p)
			}
		},
	})
	return s
}

// ChaosStats returns the fault counters of the session's chaos plane
// (zero when chaos is not configured).
func (s *Session) ChaosStats() ChaosStats {
	return s.plane.Stats()
}

// teeMonitor fans instrumented events out to two monitors, forwarding
// the structural events to whichever of them observes structure.
type teeMonitor struct {
	a, b sched.Monitor
}

func (m *teeMonitor) OnAccess(t *Task, loc Loc, write bool) {
	m.a.OnAccess(t, loc, write)
	m.b.OnAccess(t, loc, write)
}

func (m *teeMonitor) OnAcquire(t *Task, mu *Mutex) {
	m.a.OnAcquire(t, mu)
	m.b.OnAcquire(t, mu)
}

func (m *teeMonitor) OnRelease(t *Task, mu *Mutex) {
	m.a.OnRelease(t, mu)
	m.b.OnRelease(t, mu)
}

func (m *teeMonitor) each(f func(sched.StructureObserver)) {
	if so, ok := m.a.(sched.StructureObserver); ok {
		f(so)
	}
	if so, ok := m.b.(sched.StructureObserver); ok {
		f(so)
	}
}

func (m *teeMonitor) OnSpawn(parent *Task, child int32) {
	m.each(func(so sched.StructureObserver) { so.OnSpawn(parent, child) })
}

func (m *teeMonitor) OnFinishBegin(t *Task) {
	m.each(func(so sched.StructureObserver) { so.OnFinishBegin(t) })
}

func (m *teeMonitor) OnFinishEnd(t *Task) {
	m.each(func(so sched.StructureObserver) { so.OnFinishEnd(t) })
}

func (m *teeMonitor) OnTaskEnd(t *Task) {
	m.each(func(so sched.StructureObserver) { so.OnTaskEnd(t) })
}

// OnInject forwards chaos-injection annotations to whichever side
// observes them (the trace recorder, in practice).
func (m *teeMonitor) OnInject(task int32, fault chaos.Fault) {
	if io, ok := m.a.(sched.InjectObserver); ok {
		io.OnInject(task, fault)
	}
	if io, ok := m.b.(sched.InjectObserver); ok {
		io.OnInject(task, fault)
	}
}

// RecordedTrace returns the trace captured so far (Options.RecordTrace
// must be set; nil otherwise). Call it after Run has returned.
func (s *Session) RecordedTrace() *Trace {
	if s.rec == nil {
		return nil
	}
	return s.rec.Trace()
}

// Typed interruption errors of a context-aware replay
// (ReplayTraceContext, Replayer.Replay). Both also satisfy errors.Is
// against the context sentinel they correspond to.
var (
	// ErrCanceled reports a replay stopped by caller cancellation; the
	// Report returned alongside it covers the analyzed prefix.
	ErrCanceled = trace.ErrCanceled
	// ErrDeadline reports a replay stopped by its context deadline; the
	// Report returned alongside it covers the analyzed prefix.
	ErrDeadline = trace.ErrDeadline
)

// ReplayTrace re-analyzes a recorded (or generated) trace offline with
// the checker selected by opts: the DPST is rebuilt from the trace's
// structural events and every access is fed to the analysis exactly as
// during a live run. CheckerNone is rejected — there is nothing to
// replay into.
func ReplayTrace(tr *Trace, opts Options) (Report, error) {
	return ReplayTraceContext(context.Background(), tr, opts)
}

// ReplayTraceContext is ReplayTrace under a context: the replay polls
// ctx between event batches and stops with ErrCanceled or ErrDeadline
// when the caller cancels or the deadline passes. On interruption the
// returned Report still carries the statistics and violations of the
// analyzed prefix, so deadline-bounded checking degrades to a partial
// result instead of nothing.
func ReplayTraceContext(ctx context.Context, tr *Trace, opts Options) (Report, error) {
	r, err := NewReplayer(opts)
	if err != nil {
		return Report{}, err
	}
	return r.Replay(ctx, tr)
}

// Replayer is one offline analysis instance: the DPST, checker, budget
// gate, and observability hub that ReplayTrace wires internally, held
// open so a long replay can be watched while it runs. Snapshot is safe
// to call from any goroutine concurrently with Replay; avd-serverd
// polls it to serve live per-run statistics. A Replayer analyzes one
// trace: create a fresh one per replay.
type Replayer struct {
	engine
	used   bool
	usedMu sync.Mutex
}

// NewReplayer builds the offline analysis selected by opts without
// running it. CheckerNone is rejected — there is nothing to replay into.
func NewReplayer(opts Options) (*Replayer, error) {
	switch opts.Checker {
	case CheckerOptimized, CheckerBasic, CheckerVelodrome:
	default:
		return nil, fmt.Errorf("avd: ReplayTrace requires an analyzing checker, got %v", opts.Checker)
	}
	return &Replayer{engine: newEngine(opts)}, nil
}

// Replay feeds tr through the analysis and returns its Report. It may
// be called once per Replayer; ctx cancellation and deadlines interrupt
// the replay with ErrCanceled/ErrDeadline while still returning the
// partial Report of the analyzed prefix.
func (r *Replayer) Replay(ctx context.Context, tr *Trace) (Report, error) {
	r.usedMu.Lock()
	if r.used {
		r.usedMu.Unlock()
		return Report{}, fmt.Errorf("avd: Replayer.Replay called twice (a Replayer analyzes one trace)")
	}
	r.used = true
	r.usedMu.Unlock()
	var err error
	if r.velo != nil {
		err = trace.ReplayContext(ctx, tr, r.tree, r.velo, r.velo)
	} else {
		err = trace.ReplayContext(ctx, tr, r.tree, r.chk, nil)
	}
	return r.report(), err
}

// Snapshot returns the live analysis view of the replay, with the same
// concurrency guarantees as Session.Snapshot: safe from any goroutine
// while Replay runs, counters monotone snapshot to snapshot.
func (r *Replayer) Snapshot() Snapshot { return r.snapshot() }

// Run executes body as the root task and waits for the whole computation.
func (s *Session) Run(body func(*Task)) { s.sch.Run(body) }

// Close stops the worker pool.
func (s *Session) Close() { s.sch.Close() }

// NewMutex creates an instrumented mutex.
func (s *Session) NewMutex(name string) *Mutex { return s.sch.NewMutex(name) }

// Stats are the per-run measurements reported in Table 1 of the paper.
type Stats struct {
	// Locations is the number of unique instrumented locations accessed.
	Locations int64
	// DPSTNodes is the number of nodes in the DPST.
	DPSTNodes int
	// LCAQueries is the number of least-common-ancestor queries issued.
	LCAQueries int64
	// UniqueLCAs is the number of distinct LCA queries (cache misses).
	UniqueLCAs int64
	// FilterHits counts accesses the batch deduplicator skipped, plus
	// batched accesses the offer-once fast path answered; FilterMisses
	// counts batched accesses that ran the full dispatch. Both read zero
	// without Options.Batch, with Options.DisableAccessFilter, and for
	// other checkers.
	FilterHits   int64
	FilterMisses int64
	// BatchFlushes counts drained per-task access batches and
	// BatchedAccesses the accesses dispatched through them; both are
	// zero unless Options.Batch is enabled.
	BatchFlushes    int64
	BatchedAccesses int64
	// WindowElisions counts accesses the handle layer answered from the
	// window-saturation cache without touching the batch buffer or dedup
	// table (DESIGN.md §4.3). Zero unless Options.Batch is enabled with
	// window elision on.
	WindowElisions int64
}

// UniquePercent is the percentage of LCA queries that were unique, or 0
// when none were issued (shown as -NA- in Table 1).
func (st Stats) UniquePercent() float64 {
	if st.LCAQueries == 0 {
		return 0
	}
	return 100 * float64(st.UniqueLCAs) / float64(st.LCAQueries)
}

// DropStats counts what a resource-bounded session shed instead of
// allocating: a nonzero field means the corresponding results may be
// incomplete in a documented way (see DESIGN.md, "Robustness and
// failure modes").
type DropStats struct {
	// Locations counts shadow-memory admissions refused: accesses to
	// those locations were ignored by the checker.
	Locations int64
	// Labels counts path-label allocations degraded to the sentinel;
	// affected nodes answer MHP queries by tree walk (slower, still
	// exact).
	Labels int64
	// LCAEntries counts memoized LCA results not cached; those queries
	// recompute (slower, still exact).
	LCAEntries int64
	// Violations counts violations refused by Options.MaxViolations.
	Violations int64
}

// Report is the outcome of a session's runs.
type Report struct {
	// Violations lists distinct atomicity violations (DPST checkers).
	Violations []Violation
	// ViolationCount counts distinct violations, including any beyond
	// the retention limit.
	ViolationCount int64
	// Cycles counts Velodrome serializability cycles (Velodrome only).
	Cycles int64
	// Stats carries the Table 1 measurements.
	Stats Stats
	// Saturated is set when any resource bound (MemoryBudget,
	// MaxViolations) or injected allocation failure caused the analysis
	// to shed metadata or results; Drops says what was shed.
	Saturated bool
	// Drops itemizes what was shed per layer.
	Drops DropStats
	// MemoryUsed is the tracked metadata bytes charged against
	// Options.MemoryBudget (0 when no budget is set).
	MemoryUsed int64
	// TaskPanics lists recovered task panics (bounded detail);
	// PanicCount is the total including any beyond the bound.
	TaskPanics []TaskPanic
	// PanicCount is the total number of recovered task panics.
	PanicCount int64
}

// Report returns the analysis results accumulated so far.
func (s *Session) Report() Report {
	r := s.report()
	r.TaskPanics, r.PanicCount = s.sch.TaskPanics()
	return r
}

// Snapshot is a point-in-time view of a running session's analysis,
// safe to poll from any goroutine while Run executes. All counters are
// monotone from snapshot to snapshot, and a snapshot taken after Run
// returns agrees with the corresponding fields of Report.
type Snapshot struct {
	// Stats carries the live Table 1 measurements.
	Stats Stats
	// ViolationCount counts distinct violations reported so far;
	// Cycles the Velodrome cycles (Velodrome sessions only).
	ViolationCount int64
	Cycles         int64
	// Saturated and Drops mirror the Report fields; MemoryUsed is the
	// current tracked metadata bytes.
	Saturated  bool
	Drops      DropStats
	MemoryUsed int64
	// PanicCount counts recovered task panics so far.
	PanicCount int64
	// Chaos counts injected faults so far.
	Chaos ChaosStats
	// Events are the raw observability event totals.
	Events EventCounts
}

// Snapshot returns the live analysis view. It takes no locks that the
// instrumented hot path contends on, so polling it (even at high
// frequency, from several goroutines) does not perturb the measured
// program.
func (s *Session) Snapshot() Snapshot { return s.snapshot() }
