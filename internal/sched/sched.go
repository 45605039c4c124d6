// Package sched implements the task parallel runtime substrate of the
// reproduction: a TBB-style fork-join scheduler with per-worker
// Chase-Lev work-stealing deques, async-finish task structure, and
// hooks that build the DPST and drive a dynamic-analysis Monitor.
//
// The paper's prototype piggybacks on Intel Threading Building Blocks;
// goroutines have no strict fork-join structure, so this package provides
// the structured runtime the analysis requires. Tasks are spawned with
// Task.Spawn and joined by the innermost enclosing Task.Finish scope.
// Workers waiting at a finish scope help execute other tasks instead of
// blocking, as TBB's wait_for_all does.
package sched

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/dpst"
)

// Loc identifies an instrumented shared-memory location. Locations in a
// multi-variable atomicity group share a Loc, which gives all of them the
// same checker metadata as Section 3 of the paper prescribes.
type Loc uint64

// Monitor observes the instrumented events of an execution. A nil
// monitor corresponds to the paper's uninstrumented baseline. Monitor
// methods are invoked on the goroutine executing the task, concurrently
// across tasks; implementations synchronize their own state.
type Monitor interface {
	// OnAccess is called on every instrumented read or write.
	OnAccess(t *Task, loc Loc, write bool)
	// OnAcquire is called after the task acquires an instrumented lock.
	OnAcquire(t *Task, m *Mutex)
	// OnRelease is called before the task releases an instrumented lock.
	OnRelease(t *Task, m *Mutex)
}

// InjectObserver is an optional extension of Monitor for observers that
// want the chaos plane's scheduler-level injections as events (e.g. the
// trace recorder overlaying them on a timeline): forced steals, injected
// delays, injected panics. The runtime checks for it with a type
// assertion on the Monitor, like StructureObserver.
type InjectObserver interface {
	// OnInject is called when the chaos plane injects fault against task.
	// For FaultSteal it runs on the spawning task's goroutine before the
	// stolen child executes; for FaultDelay and FaultPanic on the
	// affected task's goroutine as it starts.
	OnInject(task int32, fault chaos.Fault)
}

// StructureObserver is an optional extension of Monitor for analyses
// that need the task-management events themselves (e.g. the trace
// recorder): task spawns, finish-scope boundaries, and task completion.
// The runtime checks for it with a type assertion on the Monitor.
type StructureObserver interface {
	// OnSpawn is called by the spawning task before the child runs.
	OnSpawn(parent *Task, child int32)
	// OnFinishBegin/OnFinishEnd bracket a finish scope of t.
	OnFinishBegin(t *Task)
	OnFinishEnd(t *Task)
	// OnTaskEnd is called when a task's body (and implicit sync) is done.
	OnTaskEnd(t *Task)
}

// Options configures a Scheduler.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Tree receives the DPST of the execution. When nil, no DPST is
	// built: the uninstrumented configuration.
	Tree dpst.Tree
	// Monitor observes instrumented events; may be nil.
	Monitor Monitor
	// Chaos optionally injects scheduler faults — forced steals, bounded
	// delays, task panics — from deterministic seeded streams; nil
	// disables injection (the default, zero-overhead configuration).
	Chaos *chaos.Plane
	// RecoverPanics stops Run from re-raising task panics: crashed tasks
	// are recorded (see TaskPanics) and the computation's surviving
	// tasks still join, preserving partial analysis results.
	RecoverPanics bool
	// OnPanic, when set, is invoked for every recovered task panic, on
	// the panicking task's goroutine while it unwinds. It must be cheap
	// and must not call back into the scheduler.
	OnPanic func(TaskPanic)
}

// Scheduler runs fork-join task programs on a pool of work-stealing
// workers.
type Scheduler struct {
	tree       dpst.Tree
	mon        Monitor
	so         StructureObserver // mon's optional extension, or nil
	io         InjectObserver    // mon's optional extension, or nil
	chaos      *chaos.Plane
	onPanic    func(TaskPanic)
	workers    []*worker
	inject     chan *Task
	nextTask   atomic.Int32
	lockTok    atomic.Uint64
	nextLockID atomic.Uint32
	nextLoc    atomic.Uint64
	stripes    atomic.Uint64

	recoverPanics bool
	panics        panicLog

	// overflow receives forced-steal victims injected by the chaos
	// plane; only consulted when chaos is active.
	ovMu     sync.Mutex
	overflow []*Task

	stop     atomic.Bool
	sleepers atomic.Int32
	idleMu   sync.Mutex
	idleCond *sync.Cond
	wg       sync.WaitGroup
}

// New creates a scheduler and starts its workers. Call Close to stop
// them.
func New(opts Options) *Scheduler {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		tree:          opts.Tree,
		mon:           opts.Monitor,
		chaos:         opts.Chaos,
		recoverPanics: opts.RecoverPanics,
		inject:        make(chan *Task, 1),
	}
	s.so, _ = opts.Monitor.(StructureObserver)
	s.io, _ = opts.Monitor.(InjectObserver)
	s.onPanic = opts.OnPanic
	s.idleCond = sync.NewCond(&s.idleMu)
	s.workers = make([]*worker, n)
	for i := range s.workers {
		s.workers[i] = &worker{
			id:  i,
			s:   s,
			dq:  newDeque(),
			rng: rand.New(rand.NewSource(int64(i)*2654435761 + 1)),
		}
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.loop()
	}
	return s
}

// Tree returns the DPST being built, or nil for the uninstrumented
// configuration.
func (s *Scheduler) Tree() dpst.Tree { return s.tree }

// Monitor returns the attached monitor, or nil.
func (s *Scheduler) Monitor() Monitor { return s.mon }

// AllocLoc allocates a fresh location identifier.
func (s *Scheduler) AllocLoc() Loc { return Loc(s.nextLoc.Add(1)) }

// AllocLocs allocates n consecutive location identifiers and returns the
// first; used for instrumented arrays.
func (s *Scheduler) AllocLocs(n int) Loc {
	last := s.nextLoc.Add(uint64(n))
	return Loc(last - uint64(n) + 1)
}

// AllocLocsStriped allocates n consecutive location identifiers whose
// base is padded onto a per-aggregate phase of the ElideSize-slot
// direct-mapped caches (the batch deduplicator and the window-elision
// cache both index by loc&ElideMask). Without the padding, two arrays
// whose lengths are multiples of the cache size — the power-of-two source and destination of a merge, say — land on the
// same phase, so a[i] and b[i] collide in every direct-mapped slot for
// every i and evict each other's redundancy facts all window long. The
// phase schedule is deterministic (the k-th striped allocation of a
// scheduler gets phase (17k+1)&ElideMask, a full cycle of the 64
// residues), so replayed and repeated runs see identical location IDs.
func (s *Scheduler) AllocLocsStriped(n int) Loc {
	k := s.stripes.Add(1) - 1
	phase := (17*k + 1) & ElideMask
	for {
		cur := s.nextLoc.Load()
		base := cur + 1
		pad := (phase - base) & ElideMask
		if s.nextLoc.CompareAndSwap(cur, cur+pad+uint64(n)) {
			return Loc(base + pad)
		}
	}
}

// Run executes body as the root task and blocks until the whole
// computation — the root body and every transitively spawned task — has
// completed. Run may be called multiple times, sequentially. Running a
// closed scheduler raises a UsageError.
func (s *Scheduler) Run(body func(*Task)) {
	if s.stop.Load() {
		usage("Scheduler.Run", "session used after Close")
	}
	rootParent := dpst.None
	if s.tree != nil {
		rootParent = s.tree.NewNode(dpst.None, dpst.Finish, 0)
	}
	scope := &finishScope{}
	done := make(chan struct{})
	root := &Task{
		id:         s.nextTask.Add(1) - 1,
		sch:        s,
		parentNode: rootParent,
		step:       dpst.None,
		scope:      scope,
	}
	root.body = func(t *Task) {
		func() {
			defer func() {
				t.recoverInto(recover(), scope)
			}()
			body(t)
			t.implicitSync()
		}()
		t.waitScope(scope)
	}
	root.onDone = func() { close(done) }
	s.inject <- root
	s.wake()
	<-done
	// Re-raise a panic from the root body or any spawned task on the
	// caller's goroutine, after the whole computation has joined — unless
	// the scheduler recovers panics, in which case the recorded TaskPanics
	// are the only trace and the partial results stand.
	if !s.recoverPanics {
		scope.rethrow()
	}
}

// recordPanic appends one recovered task panic to the bounded panic log
// and notifies the OnPanic observer.
func (s *Scheduler) recordPanic(task int32, v any) {
	p := TaskPanic{Task: task, Value: v, Stack: string(debug.Stack())}
	s.panics.record(p)
	if s.onPanic != nil {
		s.onPanic(p)
	}
}

// TaskPanics returns the recovered task panics (detail bounded at
// maxRecordedPanics) and the total count including any beyond the cap.
func (s *Scheduler) TaskPanics() ([]TaskPanic, int64) { return s.panics.snapshot() }

// pushOverflow hands a forced-steal victim to the shared overflow queue,
// where any worker — typically not the spawner — will find it.
func (s *Scheduler) pushOverflow(t *Task) {
	s.ovMu.Lock()
	s.overflow = append(s.overflow, t)
	s.ovMu.Unlock()
}

func (s *Scheduler) popOverflow() *Task {
	s.ovMu.Lock()
	defer s.ovMu.Unlock()
	if len(s.overflow) == 0 {
		return nil
	}
	t := s.overflow[0]
	s.overflow = s.overflow[1:]
	return t
}

// Close stops the worker pool and waits for every worker goroutine to
// exit, so a closed session leaves nothing behind. The scheduler must be
// idle. Close is idempotent: repeated calls are no-ops.
func (s *Scheduler) Close() {
	if !s.stop.CompareAndSwap(false, true) {
		return
	}
	s.idleMu.Lock()
	s.idleCond.Broadcast()
	s.idleMu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) wake() {
	if s.sleepers.Load() > 0 {
		s.idleMu.Lock()
		s.idleCond.Signal()
		s.idleMu.Unlock()
	}
}

type worker struct {
	id  int
	s   *Scheduler
	dq  *deque
	rng *rand.Rand
}

func (w *worker) loop() {
	defer w.s.wg.Done()
	// Label the worker goroutine so CPU and goroutine profiles attribute
	// samples per scheduler worker (runtime/pprof.Do keeps the label set
	// for the whole loop).
	pprof.Do(context.Background(), pprof.Labels("avd_worker", strconv.Itoa(w.id)), func(context.Context) {
		w.run()
	})
}

func (w *worker) run() {
	idleSpins := 0
	for {
		if w.s.stop.Load() {
			return
		}
		if t := w.findTask(); t != nil {
			idleSpins = 0
			w.runTask(t)
			continue
		}
		idleSpins++
		if idleSpins < 64 {
			runtime.Gosched()
			continue
		}
		w.park()
		idleSpins = 0
	}
}

// park blocks the worker until new work may be available. The sleepers
// counter and the recheck under seq-cst atomics close the lost-wakeup
// window against concurrent pushes.
func (w *worker) park() {
	w.s.idleMu.Lock()
	w.s.sleepers.Add(1)
	if t := w.findTask(); t != nil {
		w.s.sleepers.Add(-1)
		w.s.idleMu.Unlock()
		w.runTask(t)
		return
	}
	if w.s.stop.Load() {
		w.s.sleepers.Add(-1)
		w.s.idleMu.Unlock()
		return
	}
	w.s.idleCond.Wait()
	w.s.sleepers.Add(-1)
	w.s.idleMu.Unlock()
}

// findTask looks for runnable work: the local deque first, then the
// chaos overflow queue (forced-steal victims), then the injection
// channel, then stealing from victims in random order.
func (w *worker) findTask() *Task {
	if t := w.dq.pop(); t != nil {
		return t
	}
	if w.s.chaos != nil {
		if t := w.s.popOverflow(); t != nil {
			return t
		}
	}
	select {
	case t := <-w.s.inject:
		return t
	default:
	}
	n := len(w.s.workers)
	if n > 1 {
		off := w.rng.Intn(n)
		for i := 0; i < n; i++ {
			v := w.s.workers[(off+i)%n]
			if v == w {
				continue
			}
			if t := v.dq.steal(); t != nil {
				return t
			}
		}
	}
	return nil
}

func (w *worker) runTask(t *Task) {
	t.worker = w
	func() {
		defer func() {
			// A panicking spawned task must not take the worker down;
			// the panic recovers into the scheduler's panic log and the
			// task's join scope, which re-raises it at the Finish (or
			// Run) that owns the task. An open spawn-sync scope is
			// drained even while unwinding.
			t.recoverInto(recover(), t.scope)
		}()
		if pl := w.s.chaos; pl != nil {
			if n := pl.DelaySpins(t.id); n > 0 {
				if io := w.s.io; io != nil {
					io.OnInject(t.id, chaos.FaultDelay)
				}
				for i := 0; i < n; i++ {
					runtime.Gosched()
				}
			}
			if pl.PanicTask(t.id) {
				if io := w.s.io; io != nil {
					io.OnInject(t.id, chaos.FaultPanic)
				}
				panic(chaos.InjectedPanic{Task: t.id})
			}
		}
		t.body(t)
		t.implicitSync()
	}()
	if so := t.sch.so; so != nil {
		so.OnTaskEnd(t)
	}
	if t.scope != nil && t.spawned {
		t.scope.pending.Add(-1)
	}
	if t.onDone != nil {
		t.onDone()
	}
}
