package avd

import (
	"math"
	"sync/atomic"

	"github.com/taskpar/avd/internal/sched"
)

// guardSession panics with a UsageError when a variable handle created
// by one session is accessed from a task of another. Mixing sessions
// would silently corrupt the analysis: the location IDs and DPST nodes
// of different sessions live in unrelated namespaces.
func guardSession(op string, t *Task, sch *sched.Scheduler) {
	if t.Scheduler() != sch {
		panic(&UsageError{Op: op, Detail: "variable belongs to a different session"})
	}
}

// Shared is implemented by every instrumented variable handle; it exposes
// the location identifier the checker tracks. Variables grouped with
// Session.Atomic share one location and therefore one metadata cell,
// implementing the paper's multi-variable atomicity annotations.
type Shared interface {
	// Loc returns the current location identifier of the variable.
	Loc() Loc
	setLoc(Loc)
}

// Atomic annotates a group of variables that must be accessed atomically
// together: all of them are mapped to the metadata cell of the first.
// Call it before Run, on variables created by this session.
func (s *Session) Atomic(vars ...Shared) {
	if len(vars) < 2 {
		return
	}
	loc := vars[0].Loc()
	for _, v := range vars[1:] {
		v.setLoc(loc)
	}
}

// IntVar is an instrumented shared integer. The value itself is stored
// atomically so racy kernels remain well-defined Go; the checker sees
// the reads and writes exactly as annotated accesses.
type IntVar struct {
	loc  Loc
	sch  *sched.Scheduler
	name string
	v    atomic.Int64
}

// NewIntVar creates an instrumented integer variable.
func (s *Session) NewIntVar(name string) *IntVar {
	return &IntVar{loc: s.sch.AllocLoc(), sch: s.sch, name: name}
}

// Name returns the diagnostic name.
func (v *IntVar) Name() string { return v.name }

// Loc implements Shared.
func (v *IntVar) Loc() Loc { return v.loc }

func (v *IntVar) setLoc(l Loc) { v.loc = l }

// Load reads the variable.
func (v *IntVar) Load(t *Task) int64 {
	guardSession("IntVar.Load", t, v.sch)
	t.Access(v.loc, false)
	return v.v.Load()
}

// Store writes the variable.
func (v *IntVar) Store(t *Task, x int64) {
	guardSession("IntVar.Store", t, v.sch)
	t.Access(v.loc, true)
	v.v.Store(x)
}

// Add performs the load-modify-store idiom v = v + d: the checker sees a
// read followed by a write, the access pattern whose atomicity the paper
// targets.
func (v *IntVar) Add(t *Task, d int64) int64 {
	guardSession("IntVar.Add", t, v.sch)
	t.Access(v.loc, false)
	t.Access(v.loc, true)
	return v.v.Add(d)
}

// Value returns the current value without instrumentation (for use
// outside Run, e.g. in assertions).
func (v *IntVar) Value() int64 { return v.v.Load() }

// SetValue writes the variable without instrumentation. Together with
// Value and AddValue it is the rewrite target of avd-lint's elision
// auto-fix: a handle the elision analyzer proves single-step can use
// these accessors, skipping the checker entirely, without changing the
// analysis outcome (a single-step handle can never be part of a
// violation).
func (v *IntVar) SetValue(x int64) { v.v.Store(x) }

// AddValue performs v = v + d without instrumentation; see SetValue.
func (v *IntVar) AddValue(d int64) int64 { return v.v.Add(d) }

// FloatVar is an instrumented shared float64.
type FloatVar struct {
	loc  Loc
	sch  *sched.Scheduler
	name string
	v    atomic.Uint64
}

// NewFloatVar creates an instrumented float variable.
func (s *Session) NewFloatVar(name string) *FloatVar {
	return &FloatVar{loc: s.sch.AllocLoc(), sch: s.sch, name: name}
}

// Name returns the diagnostic name.
func (v *FloatVar) Name() string { return v.name }

// Loc implements Shared.
func (v *FloatVar) Loc() Loc { return v.loc }

func (v *FloatVar) setLoc(l Loc) { v.loc = l }

// Load reads the variable.
func (v *FloatVar) Load(t *Task) float64 {
	guardSession("FloatVar.Load", t, v.sch)
	t.Access(v.loc, false)
	return math.Float64frombits(v.v.Load())
}

// Store writes the variable.
func (v *FloatVar) Store(t *Task, x float64) {
	guardSession("FloatVar.Store", t, v.sch)
	t.Access(v.loc, true)
	v.v.Store(math.Float64bits(x))
}

// Add performs the load-modify-store idiom v = v + d (read then write).
func (v *FloatVar) Add(t *Task, d float64) float64 {
	x := v.Load(t) + d
	v.Store(t, x)
	return x
}

// Value returns the current value without instrumentation.
func (v *FloatVar) Value() float64 { return math.Float64frombits(v.v.Load()) }

// SetValue writes the variable without instrumentation (the elision
// auto-fix target; see IntVar.SetValue).
func (v *FloatVar) SetValue(x float64) { v.v.Store(math.Float64bits(x)) }

// AddValue performs v = v + d without instrumentation. Like Add it is a
// load-modify-store, fine for the single-step handles it is meant for.
func (v *FloatVar) AddValue(d float64) float64 {
	x := math.Float64frombits(v.v.Load()) + d
	v.v.Store(math.Float64bits(x))
	return x
}

// IntArray is an instrumented array of shared integers; each element is
// its own location.
type IntArray struct {
	loc0 Loc
	sch  *sched.Scheduler
	name string
	data []atomic.Int64
}

// NewIntArray creates an instrumented integer array of length n. Array
// locations are index-striped: each array's base lands on a distinct
// phase of the checker's direct-mapped caches, so equal indices of two
// power-of-two arrays (a merge's source and destination frontier, say)
// stop colliding in every dedup and window-elision slot.
func (s *Session) NewIntArray(name string, n int) *IntArray {
	return &IntArray{loc0: s.sch.AllocLocsStriped(n), sch: s.sch, name: name, data: make([]atomic.Int64, n)}
}

// Name returns the diagnostic name.
func (a *IntArray) Name() string { return a.name }

// Len returns the element count.
func (a *IntArray) Len() int { return len(a.data) }

// LocAt returns the location identifier of element i.
func (a *IntArray) LocAt(i int) Loc { return a.loc0 + Loc(i) }

// Load reads element i.
func (a *IntArray) Load(t *Task, i int) int64 {
	guardSession("IntArray.Load", t, a.sch)
	t.Access(a.LocAt(i), false)
	return a.data[i].Load()
}

// Store writes element i.
func (a *IntArray) Store(t *Task, i int, x int64) {
	guardSession("IntArray.Store", t, a.sch)
	t.Access(a.LocAt(i), true)
	a.data[i].Store(x)
}

// Add performs element i's load-modify-store (read then write).
func (a *IntArray) Add(t *Task, i int, d int64) int64 {
	guardSession("IntArray.Add", t, a.sch)
	t.Access(a.LocAt(i), false)
	t.Access(a.LocAt(i), true)
	return a.data[i].Add(d)
}

// Value returns element i without instrumentation.
func (a *IntArray) Value(i int) int64 { return a.data[i].Load() }

// SetValue writes element i without instrumentation (the elision
// auto-fix target; see IntVar.SetValue).
func (a *IntArray) SetValue(i int, x int64) { a.data[i].Store(x) }

// AddValue performs element i's v = v + d without instrumentation.
func (a *IntArray) AddValue(i int, d int64) int64 { return a.data[i].Add(d) }

// FloatArray is an instrumented array of shared float64 values.
type FloatArray struct {
	loc0 Loc
	sch  *sched.Scheduler
	name string
	data []atomic.Uint64
}

// NewFloatArray creates an instrumented float array of length n. Like
// NewIntArray, the locations are index-striped across the checker's
// direct-mapped cache phases.
func (s *Session) NewFloatArray(name string, n int) *FloatArray {
	return &FloatArray{loc0: s.sch.AllocLocsStriped(n), sch: s.sch, name: name, data: make([]atomic.Uint64, n)}
}

// Name returns the diagnostic name.
func (a *FloatArray) Name() string { return a.name }

// Len returns the element count.
func (a *FloatArray) Len() int { return len(a.data) }

// LocAt returns the location identifier of element i.
func (a *FloatArray) LocAt(i int) Loc { return a.loc0 + Loc(i) }

// Load reads element i.
func (a *FloatArray) Load(t *Task, i int) float64 {
	guardSession("FloatArray.Load", t, a.sch)
	t.Access(a.LocAt(i), false)
	return math.Float64frombits(a.data[i].Load())
}

// Store writes element i.
func (a *FloatArray) Store(t *Task, i int, x float64) {
	guardSession("FloatArray.Store", t, a.sch)
	t.Access(a.LocAt(i), true)
	a.data[i].Store(math.Float64bits(x))
}

// Add performs element i's load-modify-store (read then write).
func (a *FloatArray) Add(t *Task, i int, d float64) float64 {
	x := a.Load(t, i) + d
	a.Store(t, i, x)
	return x
}

// Value returns element i without instrumentation.
func (a *FloatArray) Value(i int) float64 { return math.Float64frombits(a.data[i].Load()) }

// SetValue writes element i without instrumentation (the elision
// auto-fix target; see IntVar.SetValue).
func (a *FloatArray) SetValue(i int, x float64) { a.data[i].Store(math.Float64bits(x)) }

// AddValue performs element i's v = v + d without instrumentation (a
// load-modify-store, fine for single-step handles).
func (a *FloatArray) AddValue(i int, d float64) float64 {
	x := math.Float64frombits(a.data[i].Load()) + d
	a.data[i].Store(math.Float64bits(x))
	return x
}
