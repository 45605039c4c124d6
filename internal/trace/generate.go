package trace

import (
	"fmt"
	"math/rand"

	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/sptest"
)

// Op is one instruction of a compiled task body.
type Op struct {
	Kind  Kind
	Loc   sched.Loc
	Write bool
	Lock  uint32
	CS    uint64
	Child int32
}

// Compiled holds the per-task instruction lists of a program: Code[i] is
// the body of task i, with task 0 the root. Locations and locks are
// offset to small dense sched.Loc / lock-ID spaces.
type Compiled struct {
	Code [][]Op
}

// LocBase is the sched.Loc assigned to sptest location 0 when a program
// is compiled to a trace; sptest location i maps to LocBase+i.
const LocBase sched.Loc = 1

// Compile lowers a structured program to per-task instruction lists:
// accesses grouped into acquire/release-wrapped critical sections, spawn
// and finish constructs made explicit.
func Compile(p *sptest.Program) *Compiled {
	c := &Compiled{Code: [][]Op{nil}}
	var compileBody func(body []sptest.Item, task int32)
	compileBody = func(body []sptest.Item, task int32) {
		emit := func(o Op) { c.Code[task] = append(c.Code[task], o) }
		for _, it := range body {
			switch v := it.(type) {
			case *sptest.StepItem:
				curCS := -1
				closeCS := func() {
					if curCS >= 0 {
						last := findCSLock(v.Accesses, curCS)
						emit(Op{Kind: KRelease, Lock: last, CS: uint64(curCS)})
						curCS = -1
					}
				}
				for _, a := range v.Accesses {
					if a.CS != curCS {
						closeCS()
						if a.CS >= 0 {
							emit(Op{Kind: KAcquire, Lock: uint32(a.Lock), CS: uint64(a.CS)})
							curCS = a.CS
						}
					}
					emit(Op{Kind: KAccess, Loc: LocBase + sched.Loc(a.Loc), Write: a.Write})
				}
				closeCS()
			case *sptest.SpawnItem:
				child := int32(len(c.Code))
				c.Code = append(c.Code, nil)
				emit(Op{Kind: KSpawn, Child: child})
				compileBody(v.Body, child)
			case *sptest.FinishItem:
				emit(Op{Kind: KFinishBegin})
				compileBody(v.Body, task)
				emit(Op{Kind: KFinishEnd})
			}
		}
	}
	compileBody(p.Body, 0)
	return c
}

func findCSLock(accs []sptest.Access, cs int) uint32 {
	for _, a := range accs {
		if a.CS == cs {
			return uint32(a.Lock)
		}
	}
	return 0
}

// simTask is the scheduling state of one task during trace generation.
type simTask struct {
	pc      int
	started bool
	done    bool
	scopes  []*simScope // innermost last; scopes[0] is the root scope
}

type simScope struct {
	pending int
}

// Schedule produces one valid sequentially consistent interleaving of
// the compiled program, choosing the next task uniformly at random among
// runnable tasks. The resulting trace respects spawn/join ordering and
// lock mutual exclusion.
func (c *Compiled) Schedule(r *rand.Rand) (*Trace, error) {
	return c.schedule(func(ready []int) int { return ready[r.Intn(len(ready))] })
}

// ScheduleSerial produces the depth-first serial interleaving: the most
// recently spawned runnable task always runs next, so every spawned
// child executes to completion before its parent resumes — the schedule
// of a one-worker execution. Each step's accesses are contiguous in the
// resulting trace (a task is never preempted mid-step), which is the
// precondition for the batch and elision exact-report differential
// tests.
func (c *Compiled) ScheduleSerial() (*Trace, error) {
	return c.schedule(func(ready []int) int { return ready[len(ready)-1] })
}

// schedule runs the interleaving simulator with the given policy for
// picking among runnable tasks (indices in ascending order).
func (c *Compiled) schedule(pick func(ready []int) int) (*Trace, error) {
	n := len(c.Code)
	tasks := make([]*simTask, n)
	rootScope := &simScope{}
	scopeOf := make([]*simScope, n) // join scope a task decrements at end
	for i := range tasks {
		tasks[i] = &simTask{}
	}
	tasks[0].started = true
	tasks[0].scopes = []*simScope{rootScope}
	scopeOf[0] = rootScope
	holder := make(map[uint32]bool)

	tr := &Trace{Tasks: int32(n)}
	isRunnable := func(i int) bool {
		t := tasks[i]
		if !t.started || t.done {
			return false
		}
		if t.pc >= len(c.Code[i]) {
			return true
		}
		o := c.Code[i][t.pc]
		switch o.Kind {
		case KFinishEnd:
			return t.scopes[len(t.scopes)-1].pending == 0
		case KAcquire:
			return !holder[o.Lock]
		default:
			return true
		}
	}

	remaining := n
	var ready []int
	for remaining > 0 {
		ready = ready[:0]
		for i := 0; i < n; i++ {
			if isRunnable(i) {
				ready = append(ready, i)
			}
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("trace: schedule deadlocked with %d tasks remaining", remaining)
		}
		i := pick(ready)
		t := tasks[i]
		if t.pc >= len(c.Code[i]) {
			t.done = true
			if i != 0 {
				scopeOf[i].pending--
			}
			remaining--
			tr.Events = append(tr.Events, Event{Kind: KTaskEnd, Task: int32(i)})
			continue
		}
		o := c.Code[i][t.pc]
		t.pc++
		switch o.Kind {
		case KSpawn:
			child := tasks[o.Child]
			child.started = true
			scope := t.scopes[len(t.scopes)-1]
			scope.pending++
			scopeOf[o.Child] = scope
			child.scopes = []*simScope{scope}
			tr.Events = append(tr.Events, Event{Kind: KSpawn, Task: int32(i), Child: o.Child})
		case KFinishBegin:
			t.scopes = append(t.scopes, &simScope{})
			tr.Events = append(tr.Events, Event{Kind: KFinishBegin, Task: int32(i)})
		case KFinishEnd:
			t.scopes = t.scopes[:len(t.scopes)-1]
			tr.Events = append(tr.Events, Event{Kind: KFinishEnd, Task: int32(i)})
		case KAcquire:
			holder[o.Lock] = true
			tr.Events = append(tr.Events, Event{Kind: KAcquire, Task: int32(i), Lock: o.Lock, CS: o.CS})
		case KRelease:
			delete(holder, o.Lock)
			tr.Events = append(tr.Events, Event{Kind: KRelease, Task: int32(i), Lock: o.Lock, CS: o.CS})
		case KAccess:
			tr.Events = append(tr.Events, Event{Kind: KAccess, Task: int32(i), Loc: o.Loc, Write: o.Write})
		}
	}
	return tr, nil
}

// FromProgram compiles p and schedules one random valid interleaving.
func FromProgram(p *sptest.Program, r *rand.Rand) (*Trace, error) {
	return Compile(p).Schedule(r)
}
