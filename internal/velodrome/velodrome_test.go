package velodrome_test

import (
	"fmt"
	"testing"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/velodrome"
)

type fakeTask struct {
	step  dpst.NodeID
	local any
}

func (f *fakeTask) StepNode() dpst.NodeID { return f.step }
func (f *fakeTask) Lockset() []uint64     { return nil }
func (f *fakeTask) LocalSlot() *any       { return &f.local }

func (f *fakeTask) AccessState() (*any, dpst.NodeID, []uint64) {
	return &f.local, f.step, nil
}

func figure2() (tree dpst.Tree, s11, s12, s2, s3 dpst.NodeID) {
	tree = dpst.NewArrayTree()
	f11 := tree.NewNode(dpst.None, dpst.Finish, 1)
	s11 = tree.NewNode(f11, dpst.Step, 1)
	f12 := tree.NewNode(f11, dpst.Finish, 1)
	a2 := tree.NewNode(f12, dpst.Async, 1)
	s2 = tree.NewNode(a2, dpst.Step, 2)
	s12 = tree.NewNode(f12, dpst.Step, 1)
	a3 := tree.NewNode(f12, dpst.Async, 1)
	s3 = tree.NewNode(a3, dpst.Step, 3)
	return
}

const locX sched.Loc = 1

// TestInTraceCycleDetected: S2's read and write are actually interleaved
// by S3's write in the observed trace, producing a cycle S2 -> S3 -> S2.
func TestInTraceCycleDetected(t *testing.T) {
	_, _, _, s2, s3 := figure2()
	v := velodrome.New()
	t2 := &fakeTask{step: s2}
	v.Access(t2, locX, false)                 // S2 reads X
	v.Access(&fakeTask{step: s3}, locX, true) // S3 writes X (edge S2->S3)
	v.Access(t2, locX, true)                  // S2 writes X (edge S3->S2: cycle)
	if got := v.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1; cycles: %v", got, v.Cycles())
	}
	cy := v.Cycles()[0]
	if cy.Loc != locX || cy.From != s3 || cy.To != s2 {
		t.Errorf("unexpected cycle %+v", cy)
	}
	if cy.String() == "" {
		t.Error("cycle must format")
	}
}

// TestOtherScheduleViolationMissed replays the Figure 5 trace, where the
// violation does not manifest in the observed order: Velodrome stays
// silent (this is exactly the gap the paper's checker closes).
func TestOtherScheduleViolationMissed(t *testing.T) {
	_, s11, _, s2, s3 := figure2()
	v := velodrome.New()
	v.Access(&fakeTask{step: s11}, locX, true)
	v.Access(&fakeTask{step: s3}, locX, true)
	t2 := &fakeTask{step: s2}
	v.Access(t2, locX, false)
	v.Access(t2, locX, true)
	if got := v.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0 (violation is not in this trace): %v", got, v.Cycles())
	}
}

// TestOurCheckerBeatsVelodromeOnFigure5 cross-checks the paper's claim:
// on the same Figure 5 trace the DPST checker reports the violation that
// Velodrome misses.
func TestOurCheckerBeatsVelodromeOnFigure5(t *testing.T) {
	tree, s11, _, s2, s3 := figure2()
	our := checker.New(checker.Options{Query: dpst.NewQuery(tree, true)})
	velo := velodrome.New()
	replay := func(c interface {
		Access(checker.TaskState, sched.Loc, bool)
	}) {
		t2 := &fakeTask{step: s2}
		c.Access(&fakeTask{step: s11}, locX, true)
		c.Access(&fakeTask{step: s3}, locX, true)
		c.Access(t2, locX, false)
		c.Access(t2, locX, true)
	}
	replay(our)
	replay(velo)
	if our.Reporter().Count() != 1 || velo.Count() != 0 {
		t.Fatalf("our=%d velodrome=%d; want 1 and 0",
			our.Reporter().Count(), velo.Count())
	}
}

// TestLockReleaseAcquireEdge: a cycle that requires the release-acquire
// synchronization edge.
func TestLockReleaseAcquireEdge(t *testing.T) {
	_, _, _, s2, s3 := figure2()
	const lockLoc sched.Loc = 99
	v := velodrome.New()
	t2 := &fakeTask{step: s2}
	t3 := &fakeTask{step: s3}
	v.Access(t2, locX, true)  // S2 writes X
	v.Acquire(t2, lockLoc)    // S2 holds L
	v.Release(t2, lockLoc)    // S2 releases L
	v.Acquire(t3, lockLoc)    // S3 acquires L: edge S2->S3
	v.Release(t3, lockLoc)    //
	v.Access(t2, locX, false) // ... S2 continues in the same step
	v.Access(t3, locX, true)  // S3 writes X: edge S2->S3 (dup)
	v.Access(t2, locX, false) // S2 reads X: edge S3->S2 closes the cycle
	if got := v.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1: %v", got, v.Cycles())
	}
}

// TestProgramOrderEdges: transactions of the same task are ordered; a
// conflict pattern across two tasks' step sequences forms a cycle only
// through program order.
func TestProgramOrderEdges(t *testing.T) {
	tree := dpst.NewArrayTree()
	root := tree.NewNode(dpst.None, dpst.Finish, 0)
	a1 := tree.NewNode(root, dpst.Async, 0)
	a2 := tree.NewNode(root, dpst.Async, 0)
	p1 := tree.NewNode(a1, dpst.Step, 1) // task 1, step 1
	p2 := tree.NewNode(a1, dpst.Step, 1) // task 1, step 2
	q1 := tree.NewNode(a2, dpst.Step, 2) // task 2, single step
	const locY sched.Loc = 2

	v := velodrome.New()
	tA := &fakeTask{step: p1}
	tB := &fakeTask{step: q1}
	v.Access(tA, locX, true) // p1 writes X
	v.Access(tB, locX, true) // q1 writes X: edge p1->q1
	v.Access(tB, locY, true) // q1 writes Y
	tA.step = p2             // task 1 advances to its next step
	v.Access(tA, locY, true) // p2 writes Y: edge q1->p2; program order p1->p2
	// No cycle yet: p1->q1->p2 and p1->p2 are consistent.
	if got := v.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0: %v", got, v.Cycles())
	}
	v.Access(tB, locY, false) // q1 reads Y: edge p2->q1 closes p2<->q1? q1 ~> p2 exists
	if got := v.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1: %v", got, v.Cycles())
	}
}

func TestReaderDedupAndRepeatedAccess(t *testing.T) {
	_, _, _, s2, _ := figure2()
	v := velodrome.New()
	t2 := &fakeTask{step: s2}
	for i := 0; i < 10; i++ {
		v.Access(t2, locX, false)
	}
	v.Access(t2, locX, true)
	if got := v.Count(); got != 0 {
		t.Fatalf("single-task trace must have no cycles, got %d", got)
	}
}

// TestManyEdgesOutSet pushes a transaction past the outSet threshold.
func TestManyEdgesOutSet(t *testing.T) {
	tree := dpst.NewArrayTree()
	root := tree.NewNode(dpst.None, dpst.Finish, 0)
	writer := tree.NewNode(tree.NewNode(root, dpst.Async, 0), dpst.Step, 1)
	v := velodrome.New()
	tw := &fakeTask{step: writer}
	v.Access(tw, locX, true)
	for i := 0; i < 20; i++ {
		a := tree.NewNode(root, dpst.Async, 0)
		s := tree.NewNode(a, dpst.Step, int32(i+2))
		r := &fakeTask{step: s}
		v.Access(r, locX, false) // edge writer->s each time
		v.Access(r, locX, false) // duplicate edge must be ignored
	}
	if got := v.Count(); got != 0 {
		t.Fatalf("fan-out reads must not cycle, got %d", got)
	}
}

// TestEndToEndOnScheduler runs an actually-racy program many times; when
// the schedule interleaves the conflicting accesses Velodrome may find a
// cycle, and it must never report on the serial phases.
func TestEndToEndOnScheduler(t *testing.T) {
	for i := 0; i < 10; i++ {
		tree := dpst.NewArrayTree()
		v := velodrome.New()
		s := sched.New(sched.Options{Workers: 4, Tree: tree, Monitor: v})
		const x sched.Loc = 1
		s.Run(func(tk *sched.Task) {
			tk.Access(x, true)
			tk.Finish(func(tk *sched.Task) {
				tk.Spawn(func(t2 *sched.Task) {
					t2.Access(x, false)
					t2.Access(x, true)
				})
				tk.Spawn(func(t3 *sched.Task) {
					t3.Access(x, true)
				})
			})
			// Serial epilogue must never add cycles.
			tk.Access(x, false)
		})
		s.Close()
		if got := v.Count(); got > 1 {
			t.Fatalf("run %d: got %d cycles, want 0 or 1", i, got)
		}
	}
}

func TestCycleDedup(t *testing.T) {
	_, _, _, s2, s3 := figure2()
	v := velodrome.New()
	t2 := &fakeTask{step: s2}
	t3 := &fakeTask{step: s3}
	v.Access(t2, locX, false)
	v.Access(t3, locX, true)
	v.Access(t2, locX, true) // cycle
	v.Access(t3, locX, true) // edge s2->s3 again would re-close; dedup'd
	v.Access(t2, locX, true)
	if got := v.Count(); got < 1 {
		t.Fatalf("Count = %d, want >= 1", got)
	}
	cycles := v.Cycles()
	seen := map[string]bool{}
	for _, c := range cycles {
		k := fmt.Sprint(c)
		if seen[k] {
			t.Fatalf("duplicate cycle reported: %v", c)
		}
		seen[k] = true
	}
}
