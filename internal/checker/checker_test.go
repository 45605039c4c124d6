package checker_test

import (
	"testing"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
)

// fakeTask is a synthetic TaskState for driving checkers deterministically.
type fakeTask struct {
	step  dpst.NodeID
	locks []uint64
	local any
}

func (f *fakeTask) StepNode() dpst.NodeID { return f.step }
func (f *fakeTask) Lockset() []uint64     { return f.locks }
func (f *fakeTask) LocalSlot() *any       { return &f.local }

func (f *fakeTask) AccessState() (*any, dpst.NodeID, []uint64) {
	return &f.local, f.step, f.locks
}

// figure2 rebuilds the DPST of the paper's running example.
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

func newChecker(t *testing.T, tree dpst.Tree, alg checker.Algorithm, strict bool) checker.Checker {
	t.Helper()
	return checker.New(checker.Options{
		Algorithm:        alg,
		Query:            dpst.NewQuery(tree, true),
		StrictLockChecks: strict,
	})
}

func algorithms() []checker.Algorithm {
	return []checker.Algorithm{checker.AlgOptimized, checker.AlgBasic}
}

const locX sched.Loc = 1

func TestUnserializableTable(t *testing.T) {
	R, W := checker.Read, checker.Write
	cases := []struct {
		a1, a2, a3 checker.AccessType
		want       bool
	}{
		{R, R, R, false},
		{R, R, W, false},
		{W, R, R, false},
		{R, W, R, true},
		{R, W, W, true},
		{W, R, W, true},
		{W, W, R, true},
		{W, W, W, true},
	}
	for _, c := range cases {
		if got := checker.Unserializable(c.a1, c.a2, c.a3); got != c.want {
			t.Errorf("Unserializable(%v,%v,%v) = %v, want %v", c.a1, c.a2, c.a3, got, c.want)
		}
	}
}

func TestAccessTypeString(t *testing.T) {
	if checker.Read.String() != "R" || checker.Write.String() != "W" {
		t.Error("unexpected AccessType strings")
	}
	if checker.AlgOptimized.String() != "optimized" || checker.AlgBasic.String() != "basic" {
		t.Error("unexpected Algorithm strings")
	}
}

// TestFigure5Trace replays the exact trace of Figure 5/Figure 10: the
// observed schedule exhibits no violation, but the metadata detects the
// R-W-W triple (read and write of X by S2, torn by S3's parallel write)
// feasible in another schedule.
func TestFigure5Trace(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, s11, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			t1 := &fakeTask{step: s11}
			t2 := &fakeTask{step: s2}
			t3 := &fakeTask{step: s3}

			c.Access(t1, locX, true)  // 1: X = 10 by S11
			c.Access(t3, locX, true)  // 9: X = Y by S3
			c.Access(t2, locX, false) // 6: a = X by S2
			c.Access(t2, locX, true)  // 8: X = a by S2

			vs := c.Reporter().Violations()
			if len(vs) != 1 {
				t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
			}
			v := vs[0]
			if v.PatternStep != s2 || v.InterleaverStep != s3 || v.Kind() != "R-W-W" {
				t.Errorf("unexpected violation %+v (kind %s)", v, v.Kind())
			}
			if v.Loc != locX || v.PatternTask != 2 || v.InterleaverTask != 3 {
				t.Errorf("violation bookkeeping wrong: %+v", v)
			}
			if st := c.Stats(); st.Locations != 1 {
				t.Errorf("Locations = %d, want 1", st.Locations)
			}
		})
	}
}

// TestInterleaverAfterPattern moves S3's write after S2's pair in trace
// order; the current access must then be recognized in the interleaver
// role against the stored RW pattern.
func TestInterleaverAfterPattern(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, s11, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			c.Access(&fakeTask{step: s11}, locX, true)
			t2 := &fakeTask{step: s2}
			c.Access(t2, locX, false)
			c.Access(t2, locX, true)
			c.Access(&fakeTask{step: s3}, locX, true)

			vs := c.Reporter().Violations()
			if len(vs) != 1 {
				t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
			}
			if vs[0].PatternStep != s2 || vs[0].InterleaverStep != s3 || vs[0].Kind() != "R-W-W" {
				t.Errorf("unexpected violation %+v", vs[0])
			}
		})
	}
}

// TestSerialAccessesNoViolation: S11 is serial with S2 and S3, so pairs
// by S11 cannot be torn; and reads alone never form violations.
func TestSerialAccessesNoViolation(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, s11, s12, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			// S11 pair, serial interleavers only.
			t1 := &fakeTask{step: s11}
			c.Access(t1, locX, true)
			c.Access(t1, locX, true)
			c.Access(&fakeTask{step: s12}, locX, true) // serial with S11
			// Parallel reads only on another location.
			const locY sched.Loc = 2
			t2 := &fakeTask{step: s2}
			c.Access(t2, locY, false)
			c.Access(&fakeTask{step: s3}, locY, false)
			c.Access(t2, locY, false)
			if n := c.Reporter().Count(); n != 0 {
				t.Fatalf("got %d violations, want 0: %v", n, c.Reporter().Violations())
			}
		})
	}
}

// lockTok builds an acquisition token for tests.
func lockTok(lockID uint32, acq uint64) uint64 { return sched.MakeLockToken(lockID, acq) }

// TestFigure12Locks replays the data-race-free program of Figure 11: S2
// reads X in one critical section of L and writes X in another
// (re-acquired, hence re-versioned) critical section, while S3 writes X
// under L in parallel. The R-W-W violation must be detected.
func TestFigure12Locks(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, s11, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			const lockL = 1
			c.Access(&fakeTask{step: s11}, locX, true)
			c.Access(&fakeTask{step: s3, locks: []uint64{lockTok(lockL, 1)}}, locX, true)
			t2 := &fakeTask{step: s2}
			t2.locks = []uint64{lockTok(lockL, 2)}
			c.Access(t2, locX, false)
			t2.locks = []uint64{lockTok(lockL, 3)} // L released and re-acquired: fresh version
			c.Access(t2, locX, true)

			vs := c.Reporter().Violations()
			if len(vs) != 1 {
				t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
			}
			if vs[0].PatternStep != s2 || vs[0].InterleaverStep != s3 || vs[0].Kind() != "R-W-W" {
				t.Errorf("unexpected violation %+v", vs[0])
			}
		})
	}
}

// TestSameCriticalSectionAtomic: when both accesses of the pair sit in
// the same critical section, the lock guarantees their atomicity against
// other critical sections of the same lock; no pattern is formed and no
// violation reported (paper mode).
func TestSameCriticalSectionAtomic(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, s11, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			const lockL = 1
			c.Access(&fakeTask{step: s11}, locX, true)
			c.Access(&fakeTask{step: s3, locks: []uint64{lockTok(lockL, 1)}}, locX, true)
			t2 := &fakeTask{step: s2, locks: []uint64{lockTok(lockL, 2)}}
			c.Access(t2, locX, false)
			c.Access(t2, locX, true) // same acquisition: same critical section
			if n := c.Reporter().Count(); n != 0 {
				t.Fatalf("got %d violations, want 0: %v", n, c.Reporter().Violations())
			}
		})
	}
}

// TestStrictLockChecks: a pair inside one critical section can still be
// torn by a parallel access that does not synchronize on that lock. The
// paper's algorithm misses this (it is a data race rather than a pure
// atomicity violation); the StrictLockChecks extension reports it, while
// still staying silent when the interleaver holds the same mutex.
func TestStrictLockChecks(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			const lockL = 1
			build := func(strict bool, interLocks []uint64) int64 {
				tree, _, _, s2, s3 := figure2()
				c := newChecker(t, tree, alg, strict)
				t2 := &fakeTask{step: s2, locks: []uint64{lockTok(lockL, 1)}}
				c.Access(t2, locX, false)
				c.Access(t2, locX, true) // same critical section
				c.Access(&fakeTask{step: s3, locks: interLocks}, locX, true)
				return c.Reporter().Count()
			}
			if n := build(false, nil); n != 0 {
				t.Errorf("paper mode reported %d violations for same-CS pair, want 0", n)
			}
			if n := build(true, nil); n != 1 {
				t.Errorf("strict mode reported %d violations for unsynchronized interleaver, want 1", n)
			}
			if n := build(true, []uint64{lockTok(lockL, 9)}); n != 0 {
				t.Errorf("strict mode reported %d violations although the interleaver holds the same mutex, want 0", n)
			}
		})
	}
}

// TestWWWDetected: two writes by one step torn by a parallel write.
func TestWWWDetected(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, _, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			t2 := &fakeTask{step: s2}
			c.Access(t2, locX, true)
			c.Access(t2, locX, true)
			c.Access(&fakeTask{step: s3}, locX, true)
			vs := c.Reporter().Violations()
			found := false
			for _, v := range vs {
				if v.Kind() == "W-W-W" && v.PatternStep == s2 && v.InterleaverStep == s3 {
					found = true
				}
			}
			if !found {
				t.Fatalf("W-W-W not detected; got %v", vs)
			}
		})
	}
}

// TestWRWDetected: a write then read by one step torn by a parallel
// write (W-W-R triple as recorded: first W, interleaver W, last R).
func TestWRWPatternDetected(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, _, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			c.Access(&fakeTask{step: s3}, locX, true) // parallel write first
			t2 := &fakeTask{step: s2}
			c.Access(t2, locX, true)
			c.Access(t2, locX, false)
			vs := c.Reporter().Violations()
			found := false
			for _, v := range vs {
				if v.Kind() == "W-W-R" && v.PatternStep == s2 {
					found = true
				}
			}
			if !found {
				t.Fatalf("W-W-R not detected; got %v", vs)
			}
		})
	}
}

// TestRWRDetected: read-read pair torn by a parallel write.
func TestRWRDetected(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, _, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			t2 := &fakeTask{step: s2}
			c.Access(t2, locX, false)
			c.Access(t2, locX, false)
			c.Access(&fakeTask{step: s3}, locX, true)
			vs := c.Reporter().Violations()
			found := false
			for _, v := range vs {
				if v.Kind() == "R-W-R" && v.PatternStep == s2 && v.InterleaverStep == s3 {
					found = true
				}
			}
			if !found {
				t.Fatalf("R-W-R not detected; got %v", vs)
			}
		})
	}
}

// TestStaleLocalEntryIgnored: accesses by an earlier step of the same
// task must not pair with accesses of a later step — there is a task
// management construct between them, so no atomicity is expected.
func TestStaleLocalEntryIgnored(t *testing.T) {
	tree, s11, s12, s2, _ := figure2()
	c := newChecker(t, tree, checker.AlgOptimized, false)
	// Same synthetic task (shared local slot) executing S11 then S12.
	t1 := &fakeTask{step: s11}
	c.Access(t1, locX, false) // read in S11
	t1.step = s12
	c.Access(t1, locX, true) // write in S12: must NOT form an R-W pair
	c.Access(&fakeTask{step: s2}, locX, true)
	if n := c.Reporter().Count(); n != 0 {
		t.Fatalf("got %d violations, want 0 (pair spans a task construct): %v",
			n, c.Reporter().Violations())
	}
}

// TestMultiVariableGroup: two program variables annotated as one atomic
// group share a Loc, so a read of one and a write of the other by the
// same step form a pattern.
func TestMultiVariableGroup(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			tree, _, _, s2, s3 := figure2()
			c := newChecker(t, tree, alg, false)
			const group sched.Loc = 7 // both variables mapped to this cell
			t2 := &fakeTask{step: s2}
			c.Access(t2, group, false) // read variable A
			c.Access(t2, group, true)  // write variable B
			c.Access(&fakeTask{step: s3}, group, true)
			if c.Reporter().Count() == 0 {
				t.Fatal("grouped variables must share metadata and yield a violation")
			}
		})
	}
}

// TestEndToEndFigure1OnScheduler runs the Figure 1 program on the real
// work-stealing runtime under the optimized checker.
func TestEndToEndFigure1OnScheduler(t *testing.T) {
	for i := 0; i < 20; i++ { // several runs: schedules vary
		tree := dpst.NewArrayTree()
		q := dpst.NewQuery(tree, true)
		c := checker.New(checker.Options{Query: q})
		s := sched.New(sched.Options{Workers: 4, Tree: tree, Monitor: c})
		const x sched.Loc = 1
		s.Run(func(tk *sched.Task) {
			tk.Access(x, true) // S11: X = 10
			tk.Finish(func(tk *sched.Task) {
				tk.Spawn(func(t2 *sched.Task) { // T2: a = X; X = a+1
					t2.Access(x, false)
					t2.Access(x, true)
				})
				tk.Spawn(func(t3 *sched.Task) { // T3: X = Y
					t3.Access(x, true)
				})
			})
		})
		s.Close()
		vs := c.Reporter().Violations()
		if len(vs) != 1 || vs[0].Kind() != "R-W-W" {
			t.Fatalf("run %d: got %v, want exactly one R-W-W violation", i, vs)
		}
	}
}

func TestReporter(t *testing.T) {
	r := checker.NewReporter(2)
	v1 := checker.Violation{Loc: 1, PatternStep: 2, InterleaverStep: 3, First: checker.Read, Middle: checker.Write, Last: checker.Write}
	v2 := checker.Violation{Loc: 1, PatternStep: 4, InterleaverStep: 3, First: checker.Write, Middle: checker.Write, Last: checker.Write}
	v3 := checker.Violation{Loc: 2, PatternStep: 2, InterleaverStep: 3, First: checker.Write, Middle: checker.Write, Last: checker.Read}
	if !r.Empty() {
		t.Error("fresh reporter must be empty")
	}
	r.Report(v1)
	r.Report(v1) // duplicate
	r.Report(v2)
	r.Report(v3) // beyond retention limit, still counted
	if got := r.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := len(r.Violations()); got != 2 {
		t.Errorf("retained = %d, want 2 (limit)", got)
	}
	if r.Empty() {
		t.Error("reporter with reports must not be empty")
	}
	if v1.String() == "" || v1.Kind() != "R-W-W" {
		t.Error("violation formatting broken")
	}
	vs := r.Violations()
	if vs[0].PatternStep > vs[1].PatternStep {
		t.Error("violations must be deterministically ordered")
	}
}

func TestNewCheckerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New without Query must panic")
		}
	}()
	checker.New(checker.Options{})
}
