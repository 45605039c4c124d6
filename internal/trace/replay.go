package trace

import (
	"context"
	"errors"
	"fmt"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
)

// Typed interruption errors of a context-aware replay. Both satisfy
// errors.Is against the context sentinel they wrap, so callers can
// branch either on the replay-level type or the context cause.
var (
	// ErrCanceled reports a replay stopped by caller cancellation.
	ErrCanceled = fmt.Errorf("trace: replay canceled: %w", context.Canceled)
	// ErrDeadline reports a replay stopped by a deadline.
	ErrDeadline = fmt.Errorf("trace: replay deadline exceeded: %w", context.DeadlineExceeded)
)

// ctxBatch is how many events replay processes between context polls: a
// few thousand events amortize the atomic load in ctx.Err while keeping
// cancellation latency far below any realistic deadline granularity.
const ctxBatch = 4096

// ctxErr maps a context error to the replay's typed sentinel.
func ctxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrCanceled
}

// Sink consumes replayed memory accesses; both checker.Checker and the
// Velodrome baseline satisfy it.
type Sink interface {
	Access(ts checker.TaskState, loc sched.Loc, write bool)
}

// LockSink consumes replayed lock operations (used by Velodrome, whose
// happens-before graph includes release-acquire edges).
type LockSink interface {
	Acquire(ts checker.TaskState, lockLoc sched.Loc)
	Release(ts checker.TaskState, lockLoc sched.Loc)
}

// LockLocBase offsets lock identities into a Loc range disjoint from
// program locations when lock operations are modeled as accesses.
const LockLocBase sched.Loc = 1 << 32

// LockLoc maps a trace lock ID to its location identifier.
func LockLoc(lock uint32) sched.Loc { return LockLocBase + sched.Loc(lock) }

// replayTask reconstructs the TaskState of one traced task: DPST
// position, lazily created step nodes, and the current lockset.
type replayTask struct {
	id      int32
	tree    dpst.Tree
	parents []dpst.NodeID // finish/async ancestry; top is the current parent
	step    dpst.NodeID
	locks   []uint64
	lockIDs []uint32
	local   any

	// elide is the window-elision cache a batched sink installs through
	// ElideSlot, mirroring the live runtime's handle layer: the replayer
	// runs the same front end, so recorded and live runs of one program
	// elide — and therefore dispatch — identically.
	elide *sched.Elide
}

// newStepRegion invalidates the current step.
func (t *replayTask) newStepRegion() {
	t.step = dpst.None
}

// StepNode implements checker.TaskState.
func (t *replayTask) StepNode() dpst.NodeID {
	if t.step == dpst.None {
		t.step = t.tree.NewNode(t.parents[len(t.parents)-1], dpst.Step, t.id)
	}
	return t.step
}

// Lockset implements checker.TaskState.
func (t *replayTask) Lockset() []uint64 { return t.locks }

// LocalSlot implements checker.TaskState.
func (t *replayTask) LocalSlot() *any { return &t.local }

// ElideSlot implements checker.ElideHost.
func (t *replayTask) ElideSlot() **sched.Elide { return &t.elide }

// AccessState implements checker.TaskState.
func (t *replayTask) AccessState() (*any, dpst.NodeID, []uint64) {
	return &t.local, t.StepNode(), t.locks
}

// Replay drives sink (and lockSink, if non-nil) with the events of tr,
// rebuilding the DPST on tree exactly as the live runtime would. It
// returns an error on structurally invalid traces.
func Replay(tr *Trace, tree dpst.Tree, sink Sink, lockSink LockSink) error {
	return ReplayContext(context.Background(), tr, tree, sink, lockSink)
}

// ReplayContext is Replay under a context: between event batches it
// polls ctx and stops with ErrCanceled or ErrDeadline when the caller
// cancels or the deadline passes. An interrupted replay leaves the sink
// with a valid prefix of the trace analyzed (batched sinks are drained
// before returning), so partial results remain readable.
func ReplayContext(ctx context.Context, tr *Trace, tree dpst.Tree, sink Sink, lockSink LockSink) error {
	if err := ctx.Err(); err != nil {
		return ctxErr(err)
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	root := tree.NewNode(dpst.None, dpst.Finish, 0)
	tasks := make([]*replayTask, tr.Tasks)
	tasks[0] = &replayTask{id: 0, tree: tree, parents: []dpst.NodeID{root}, step: dpst.None}
	// A batching sink needs its windows closed at the same boundaries the
	// live scheduler signals. Every flush runs before the corresponding
	// state mutation — in particular before a release pops the lockset
	// slice in place, which would corrupt the window's captured snapshot.
	bf, _ := sink.(checker.BatchFlusher)
	drain := func() {
		if bf == nil {
			return
		}
		for _, t := range tasks {
			if t != nil {
				bf.FlushStep(t)
			}
		}
	}
	var acq uint64
	for i, e := range tr.Events {
		if i%ctxBatch == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				drain()
				return ctxErr(err)
			}
		}
		t := tasks[e.Task]
		switch e.Kind {
		case KSpawn:
			if bf != nil {
				bf.FlushStep(t)
			}
			a := tree.NewNode(t.parents[len(t.parents)-1], dpst.Async, t.id)
			t.newStepRegion()
			tasks[e.Child] = &replayTask{
				id: e.Child, tree: tree, parents: []dpst.NodeID{a}, step: dpst.None,
			}
		case KFinishBegin:
			if bf != nil {
				bf.FlushStep(t)
			}
			f := tree.NewNode(t.parents[len(t.parents)-1], dpst.Finish, t.id)
			t.parents = append(t.parents, f)
			t.newStepRegion()
		case KFinishEnd:
			if bf != nil {
				bf.FlushStep(t)
			}
			t.parents = t.parents[:len(t.parents)-1]
			t.newStepRegion()
		case KAccess:
			// The same elision front end as the live handle layer
			// (sched.Task.Access): a window-saturated access never reaches
			// the sink.
			if el := t.elide; el != nil && el.Hit(e.Loc, e.Write) {
				continue
			}
			sink.Access(t, e.Loc, e.Write)
		case KAcquire:
			if bf != nil {
				bf.FlushLockChange(t)
			}
			acq++
			t.locks = append(t.locks, sched.MakeLockToken(e.Lock, acq))
			t.lockIDs = append(t.lockIDs, e.Lock)
			if lockSink != nil {
				lockSink.Acquire(t, LockLoc(e.Lock))
			}
		case KRelease:
			if bf != nil {
				bf.FlushLockChange(t)
			}
			if lockSink != nil {
				lockSink.Release(t, LockLoc(e.Lock))
			}
			found := false
			for j := len(t.lockIDs) - 1; j >= 0; j-- {
				if t.lockIDs[j] == e.Lock {
					t.locks = append(t.locks[:j], t.locks[j+1:]...)
					t.lockIDs = append(t.lockIDs[:j], t.lockIDs[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("trace: event %d: release of unheld lock %d", i, e.Lock)
			}
		case KTaskEnd:
			// No DPST effect; the join is captured by finish scopes.
			if bf != nil {
				bf.FlushStep(t)
			}
		case KInject:
			// Observability annotation only; no structural effect.
		}
	}
	// Traces need not end every task with KTaskEnd (generated traces
	// may stop mid-stream); drain whatever is still buffered.
	drain()
	return nil
}
