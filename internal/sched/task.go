package sched

import (
	"sync/atomic"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/dpst"
)

// finishScope counts the spawned tasks that must complete before the
// enclosing Finish returns, and carries the first panic raised by any of
// them so it can be re-raised at the join point (structured panic
// propagation, like TBB task groups).
type finishScope struct {
	pending atomic.Int64
	panicV  atomic.Pointer[taskPanic]
}

// taskPanic wraps a recovered panic value from a spawned task.
type taskPanic struct {
	val any
}

func (sc *finishScope) recordPanic(v any) {
	sc.panicV.CompareAndSwap(nil, &taskPanic{val: v})
}

// panicked reports whether the scope has a recorded panic.
func (sc *finishScope) panicked() bool { return sc.panicV.Load() != nil }

// rethrow re-raises the scope's recorded panic, if any.
func (sc *finishScope) rethrow() {
	if p := sc.panicV.Load(); p != nil {
		panic(p.val)
	}
}

// Task is a dynamic task of the fork-join computation. Task methods must
// be called only from the goroutine currently executing the task.
type Task struct {
	id         int32
	sch        *Scheduler
	worker     *worker
	parentNode dpst.NodeID // DPST node receiving this task's new children
	step       dpst.NodeID // current step node, or None when stale
	scope      *finishScope
	spawned    bool  // whether this task was registered in scope
	spawnSeq   int32 // ordinal of the task's next Spawn (chaos identity)
	body       func(*Task)
	onDone     func()

	// propagating marks a panic that is being re-raised at a join point
	// (Finish, Sync) rather than originating in a task body, so the
	// capture sites above record each panic once. It lives on the task
	// because the whole rethrow/recover chain runs on the task's own
	// goroutine.
	propagating bool

	locks    []uint64 // acquisition tokens of currently held locks
	lockRefs []*Mutex // parallel stack of the held mutexes

	// Cilk-style spawn/sync state: the implicit finish scope opened by
	// the first CilkSpawn after a Sync, and the context to restore.
	cilk           *finishScope
	cilkParentSave dpst.NodeID
	cilkScopeSave  *finishScope

	// Local is scratch storage for the attached Monitor: the checker
	// keeps its per-task local metadata space here. The field is only
	// touched from the task's own goroutine.
	Local any

	// elide is the window-saturation cache the batched checker installs
	// through ElideSlot; nil keeps Access on the plain monitor path. Like
	// Local, it is only touched from the task's own goroutine.
	elide *Elide
}

// ID returns the dense ID of the task.
func (t *Task) ID() int32 { return t.id }

// WorkerID returns the scheduler worker currently executing the task,
// or -1 when the task has not been dispatched to a worker yet. Valid
// only on the task's own goroutine (or before the task runs); work
// stealing migrates tasks between workers across dispatches.
func (t *Task) WorkerID() int {
	if t.worker == nil {
		return -1
	}
	return t.worker.id
}

// LocalSlot returns a pointer to the monitor scratch storage, satisfying
// the checker's TaskState interface.
func (t *Task) LocalSlot() *any { return &t.Local }

// ElideSlot returns the address of the task's window-elision cache
// pointer, satisfying the checker's optional ElideHost interface. The
// batched checker installs an Elide here when window elision is
// enabled and clears it at task end.
func (t *Task) ElideSlot() **Elide { return &t.elide }

// Scheduler returns the scheduler running this task.
func (t *Task) Scheduler() *Scheduler { return t.sch }

// StepNode returns the DPST step node covering the current instruction
// region, creating it lazily on the first access after a task-management
// construct. It returns dpst.None in the uninstrumented configuration.
func (t *Task) StepNode() dpst.NodeID {
	if t.step == dpst.None && t.sch.tree != nil {
		t.step = t.sch.tree.NewNode(t.parentNode, dpst.Step, t.id)
	}
	return t.step
}

// newStepRegion invalidates the current step node: the next
// instrumented access belongs to a fresh step.
func (t *Task) newStepRegion() {
	t.step = dpst.None
}

// AccessState bundles LocalSlot, StepNode, and Lockset into a single
// call, so the checker's per-access hot path pays one indirect call
// instead of three.
func (t *Task) AccessState() (*any, dpst.NodeID, []uint64) {
	if t.step == dpst.None && t.sch.tree != nil {
		t.step = t.sch.tree.NewNode(t.parentNode, dpst.Step, t.id)
	}
	return &t.Local, t.step, t.locks
}

// Lockset returns the acquisition tokens of the locks currently held by
// the task, innermost last. Each dynamic lock acquisition has a globally
// unique token, which implements the paper's lock versioning: two
// accesses share a token iff they sit in the same critical section, even
// across release/re-acquire of the same mutex (Section 3.3). The returned
// slice is owned by the task; callers must copy it before retaining it.
func (t *Task) Lockset() []uint64 { return t.locks }

// Access reports an instrumented read (write=false) or write to loc. It
// is the single entry point through which instrumented shared variables
// notify the attached monitor. When the batched checker has installed a
// window-elision cache and the access type is already saturated for loc
// in the current batch window, the access is provably a checker no-op
// and returns here, before the monitor sees it.
func (t *Task) Access(loc Loc, write bool) {
	if e := t.elide; e != nil && e.Hit(loc, write) {
		return
	}
	if mon := t.sch.mon; mon != nil {
		mon.OnAccess(t, loc, write)
	}
}

// recoverInto is the recovery bookkeeping shared by every capture site
// (runTask, Finish, the root body): it drains an open spawn-sync scope,
// records first-hand panics in the scheduler's panic log, and stores the
// value in the join scope so it re-raises at the owning Finish or Run. r
// must be the value of a recover() call made directly in the caller's
// deferred function.
func (t *Task) recoverInto(r any, scope *finishScope) {
	fromChild := false
	if cr := t.abortCilk(); r == nil {
		r = cr
		fromChild = true
	}
	if r == nil {
		t.propagating = false
		return
	}
	// Panics re-raised at a join point (propagating) and panics drained
	// from a cilk scope (fromChild) were already recorded when they first
	// unwound their own task; record only first-hand ones.
	if !t.propagating && !fromChild {
		t.sch.recordPanic(t.id, r)
	}
	t.propagating = false
	if scope != nil {
		scope.recordPanic(r)
	}
}

// Spawn creates a child task that executes body asynchronously. The
// child joins at the end of the innermost enclosing Finish scope (or at
// the end of Run for top-level spawns).
func (t *Task) Spawn(body func(*Task)) {
	childParent := dpst.None
	if t.sch.tree != nil {
		childParent = t.sch.tree.NewNode(t.parentNode, dpst.Async, t.id)
		t.newStepRegion() // the continuation is a fresh step
	}
	t.scope.pending.Add(1)
	child := &Task{
		id:         t.sch.nextTask.Add(1) - 1,
		sch:        t.sch,
		parentNode: childParent,
		step:       dpst.None,
		scope:      t.scope,
		spawned:    true,
		body:       body,
	}
	if so := t.sch.so; so != nil {
		so.OnSpawn(t, child.id)
	}
	seq := t.spawnSeq
	t.spawnSeq++
	if pl := t.sch.chaos; pl != nil && pl.ForceSteal(t.id, seq) {
		// Forced steal: divert the child to the shared overflow queue so
		// another worker (not the spawner's LIFO pop) picks it up.
		if io := t.sch.io; io != nil {
			io.OnInject(child.id, chaos.FaultSteal)
		}
		t.sch.pushOverflow(child)
	} else {
		t.worker.dq.push(child)
	}
	t.sch.wake()
}

// CilkSpawn spawns a child task with Cilk/TBB spawn semantics: the child
// joins at the task's next Sync (or implicitly at the end of the task,
// of an enclosing Finish body, or of Run). Following SPD3's mapping of
// spawn-sync programs onto the DPST, the first CilkSpawn after a sync
// point opens an implicit finish scope whose node becomes the parent of
// the spawned task's async node and of the continuation's steps; Sync
// closes it. The Figure 2 tree of the paper is exactly this mapping
// applied to the Figure 1 program.
func (t *Task) CilkSpawn(body func(*Task)) {
	if t.cilk == nil {
		t.cilkParentSave, t.cilkScopeSave = t.parentNode, t.scope
		if t.sch.tree != nil {
			t.parentNode = t.sch.tree.NewNode(t.parentNode, dpst.Finish, t.id)
			t.newStepRegion()
		}
		t.cilk = &finishScope{}
		t.scope = t.cilk
		if so := t.sch.so; so != nil {
			so.OnFinishBegin(t)
		}
	}
	t.Spawn(body)
}

// Sync waits for every task spawned with CilkSpawn since the previous
// sync point, like Cilk's sync or TBB's wait_for_all. It is a no-op when
// nothing was spawned. Panics from the synced tasks are re-raised here.
func (t *Task) Sync() {
	if t.cilk == nil {
		return
	}
	if len(t.locks) > 0 {
		usage("Task.Sync", "task %d syncs while holding an instrumented lock, which can deadlock a helping worker", t.id)
	}
	sc := t.cilk
	t.waitScope(sc)
	if so := t.sch.so; so != nil {
		so.OnFinishEnd(t)
	}
	t.parentNode, t.scope = t.cilkParentSave, t.cilkScopeSave
	t.cilk = nil
	if t.sch.tree != nil {
		t.newStepRegion()
	}
	if sc.panicked() {
		t.propagating = true
	}
	sc.rethrow()
}

// implicitSync closes an open spawn-sync scope at construct boundaries
// (task end, Finish entry and exit, Run end), mirroring Cilk's implicit
// sync at function return.
func (t *Task) implicitSync() {
	if t.cilk != nil {
		t.Sync()
	}
}

// abortCilk drains and closes an open spawn-sync scope while unwinding
// from a panic, so no spawned child outlives its structured parent. It
// returns the first panic recorded among the scope's children, or nil.
func (t *Task) abortCilk() any {
	if t.cilk == nil {
		return nil
	}
	sc := t.cilk
	t.parentNode, t.scope = t.cilkParentSave, t.cilkScopeSave
	t.cilk = nil
	t.waitScope(sc)
	if so := t.sch.so; so != nil {
		so.OnFinishEnd(t)
	}
	if t.sch.tree != nil {
		t.newStepRegion()
	}
	if p := sc.panicV.Load(); p != nil {
		return p.val
	}
	return nil
}

// Finish executes body and then waits until every task spawned inside it
// (transitively) has completed. While waiting, the worker executes other
// available tasks instead of blocking. A panic — in the body or in any
// spawned task of the scope — is re-raised from Finish after the whole
// scope has joined, so the tree of tasks unwinds in a structured way.
func (t *Task) Finish(body func(*Task)) {
	if len(t.locks) > 0 {
		usage("Task.Finish", "task %d enters a finish scope while holding an instrumented lock, which can deadlock a helping worker", t.id)
	}
	t.implicitSync()
	prevParent, prevScope := t.parentNode, t.scope
	if t.sch.tree != nil {
		t.parentNode = t.sch.tree.NewNode(t.parentNode, dpst.Finish, t.id)
		t.newStepRegion()
	}
	scope := &finishScope{}
	t.scope = scope
	if so := t.sch.so; so != nil {
		so.OnFinishBegin(t)
	}
	func() {
		defer func() {
			t.recoverInto(recover(), scope)
		}()
		body(t)
		t.implicitSync()
	}()
	t.waitScope(scope)
	if so := t.sch.so; so != nil {
		so.OnFinishEnd(t)
	}
	t.parentNode, t.scope = prevParent, prevScope
	if t.sch.tree != nil {
		t.newStepRegion() // the continuation after the join is a fresh step
	}
	if scope.panicked() {
		t.propagating = true
	}
	scope.rethrow()
}

// waitScope drains a finish scope, helping with other tasks meanwhile.
func (t *Task) waitScope(scope *finishScope) {
	w := t.worker
	for scope.pending.Load() > 0 {
		if nt := w.findTask(); nt != nil {
			w.runTask(nt)
			continue
		}
		// Nothing runnable: the outstanding tasks are executing on other
		// workers; yield until they finish.
		yield()
	}
}

// Parallel runs the given functions as parallel tasks and waits for all
// of them, like tbb::parallel_invoke: the first function runs inline on
// this task, the rest are spawned.
func (t *Task) Parallel(fns ...func(*Task)) {
	if len(fns) == 0 {
		return
	}
	t.Finish(func(t *Task) {
		for _, fn := range fns[1:] {
			t.Spawn(fn)
		}
		fns[0](t)
	})
}

// ParallelFor executes body(i) for every i in [lo, hi) with recursive
// range bisection, spawning a task per half until ranges shrink to at
// most grain iterations — the shape of tbb::parallel_for.
func ParallelFor(t *Task, lo, hi, grain int, body func(*Task, int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = 1
	}
	t.Finish(func(t *Task) {
		parForRange(t, lo, hi, grain, body)
	})
}

// ParallelRange is the blocked-range form of ParallelFor: leaves receive
// whole [lo, hi) chunks of at most grain iterations, like TBB's
// parallel_for over a blocked_range, so per-leaf work (local reductions,
// single critical sections) is expressible.
func ParallelRange(t *Task, lo, hi, grain int, body func(*Task, int, int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = 1
	}
	t.Finish(func(t *Task) {
		parRange(t, lo, hi, grain, body)
	})
}

func parRange(t *Task, lo, hi, grain int, body func(*Task, int, int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		lo2, hi2 := mid, hi
		t.Spawn(func(ct *Task) { parRange(ct, lo2, hi2, grain, body) })
		hi = mid
	}
	body(t, lo, hi)
}

func parForRange(t *Task, lo, hi, grain int, body func(*Task, int)) {
	for hi-lo > grain {
		mid := lo + (hi-lo)/2
		lo2, hi2 := mid, hi
		t.Spawn(func(ct *Task) { parForRange(ct, lo2, hi2, grain, body) })
		hi = mid
	}
	for i := lo; i < hi; i++ {
		body(t, i)
	}
}
