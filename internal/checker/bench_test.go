package checker_test

import (
	"testing"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
)

// benchTask is a minimal TaskState for driving the checker hot path
// directly, without the scheduler: the benchmark controls the step and
// lockset by hand.
type benchTask struct {
	step  dpst.NodeID
	locks []uint64
	local any
}

func (b *benchTask) StepNode() dpst.NodeID { return b.step }
func (b *benchTask) Lockset() []uint64     { return b.locks }
func (b *benchTask) LocalSlot() *any       { return &b.local }

func (b *benchTask) AccessState() (*any, dpst.NodeID, []uint64) {
	return &b.local, b.step, b.locks
}

// benchChecker builds a label-mode checker over a two-task tree, the
// configuration the figure benchmarks run, and returns the checker plus
// a task positioned on a step that has a parallel sibling (so dispatch
// runs real Par queries, not the a==b early-out).
func benchChecker() (checker.Checker, *benchTask) {
	tree := dpst.NewArrayTree()
	root := tree.NewNode(dpst.None, dpst.Finish, 0)
	a1 := tree.NewNode(root, dpst.Async, 0)
	s1 := tree.NewNode(a1, dpst.Step, 1)
	a2 := tree.NewNode(root, dpst.Async, 0)
	tree.NewNode(a2, dpst.Step, 2)
	c := checker.New(checker.Options{
		Query:    dpst.NewQueryMode(tree, dpst.ModeLabels),
		Reporter: checker.NewReporter(0),
	})
	return c, &benchTask{step: s1}
}

// BenchmarkAccessFirstTouch: every access is the task's first to its
// location (a fresh task every 512 accesses, locations cycling in a
// fixed window) — the raycast-at-grain-1 profile where the local
// location table never hits. Measures per-task setup amortized at a
// realistic rate plus the first-touch dispatch.
func BenchmarkAccessFirstTouch(b *testing.B) {
	c, tk := benchChecker()
	const window = 1 << 14
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			tk = &benchTask{step: tk.step}
		}
		c.Access(tk, sched.Loc(1+i%window), i%4 == 3)
	}
}

// BenchmarkAccessRepeat: the same location hammered by one step,
// lock-free — after the pattern offers complete, every access is
// answered by the offer-once flags.
func BenchmarkAccessRepeat(b *testing.B) {
	c, tk := benchChecker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(tk, 1, i%2 == 1)
	}
}

// BenchmarkAccessLoopReuse: a step sweeping a working set of 48
// locations with a load-modify-store per element, lock-free — the
// sort/karatsuba inner-loop profile: one location-table probe plus the
// offer-once fast path per access.
func BenchmarkAccessLoopReuse(b *testing.B) {
	c, tk := benchChecker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loc := sched.Loc(1 + i%48)
		c.Access(tk, loc, false)
		c.Access(tk, loc, true)
	}
}

// BenchmarkAccessLockedAdd: the kmeans merge profile — read+write pairs
// to a small accumulator set under a lock. Locked repeats always take
// the full dispatch, since the offer-once flags only cover lock-free
// accesses.
func BenchmarkAccessLockedAdd(b *testing.B) {
	c, tk := benchChecker()
	tk.locks = []uint64{7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loc := sched.Loc(1 + i%8)
		c.Access(tk, loc, false)
		c.Access(tk, loc, true)
	}
}
