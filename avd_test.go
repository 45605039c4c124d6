package avd_test

import (
	"testing"

	avd "github.com/taskpar/avd"
)

// runFigure1 executes the paper's Figure 1 program under the given
// options and returns the report.
func runFigure1(opts avd.Options) avd.Report {
	s := avd.NewSession(opts)
	defer s.Close()
	x := s.NewIntVar("X")
	y := s.NewIntVar("Y")
	s.Run(func(t *avd.Task) {
		x.Store(t, 10)
		t.Finish(func(t *avd.Task) {
			t.Spawn(func(t *avd.Task) { // T2: a = X; a++; X = a
				a := x.Load(t)
				x.Store(t, a+1)
			})
			y.Add(t, 1)
			t.Spawn(func(t *avd.Task) { // T3: X = Y; Y = Y+1
				x.Store(t, y.Load(t))
				y.Add(t, 1)
			})
		})
	})
	return s.Report()
}

func TestFigure1PublicAPI(t *testing.T) {
	rep := runFigure1(avd.Options{Workers: 4})
	// Violation on X: T2's read-write pair torn by T3's parallel write.
	foundX := false
	for _, v := range rep.Violations {
		if v.Kind() == "R-W-W" {
			foundX = true
		}
	}
	if !foundX {
		t.Fatalf("missing R-W-W violation on X; got %v", rep.Violations)
	}
	// Y is also violated: T1's continuation (Y.Add: R,W) is parallel to
	// T2? No — to T3's reads/writes of Y.
	if rep.ViolationCount < 1 {
		t.Fatal("no violations counted")
	}
	if rep.Stats.Locations != 2 {
		t.Errorf("Locations = %d, want 2", rep.Stats.Locations)
	}
	if rep.Stats.DPSTNodes == 0 || rep.Stats.LCAQueries == 0 {
		t.Errorf("missing DPST stats: %+v", rep.Stats)
	}
}

func TestFigure1AllCheckers(t *testing.T) {
	for _, kind := range []avd.CheckerKind{avd.CheckerOptimized, avd.CheckerBasic} {
		rep := runFigure1(avd.Options{Workers: 2, Checker: kind})
		if rep.ViolationCount == 0 {
			t.Errorf("%v: no violations detected", kind)
		}
	}
	for _, layout := range []avd.Layout{avd.LayoutArray, avd.LayoutLinked} {
		rep := runFigure1(avd.Options{Workers: 2, Layout: layout})
		if rep.ViolationCount == 0 {
			t.Errorf("layout %v: no violations detected", layout)
		}
	}
	// Velodrome may or may not catch it depending on the schedule; the
	// run must at least complete and report stats.
	rep := runFigure1(avd.Options{Workers: 2, Checker: avd.CheckerVelodrome})
	if rep.Stats.DPSTNodes == 0 {
		t.Error("velodrome session must still build the DPST")
	}
	if len(rep.Violations) != 0 {
		t.Error("velodrome reports cycles, not triple violations")
	}
	// Baseline: no instrumentation at all.
	rep = runFigure1(avd.Options{Workers: 2, Checker: avd.CheckerNone})
	if rep.ViolationCount != 0 || rep.Stats.DPSTNodes != 0 {
		t.Errorf("baseline must not analyze: %+v", rep)
	}
}

func TestNoLCACacheOption(t *testing.T) {
	rep := runFigure1(avd.Options{Workers: 2, MHP: avd.MHPWalk})
	if rep.ViolationCount == 0 {
		t.Fatal("uncached session must still detect")
	}
	if rep.Stats.UniqueLCAs != rep.Stats.LCAQueries {
		t.Errorf("without cache every query is unique: %+v", rep.Stats)
	}
}

func TestAtomicGroup(t *testing.T) {
	s := avd.NewSession(avd.Options{Workers: 2})
	defer s.Close()
	lo := s.NewIntVar("pair.lo")
	hi := s.NewIntVar("pair.hi")
	s.Atomic(lo, hi)
	if lo.Loc() != hi.Loc() {
		t.Fatal("grouped variables must share a location")
	}
	s.Run(func(t *avd.Task) {
		t.Finish(func(t *avd.Task) {
			t.Spawn(func(t *avd.Task) {
				// Reads the pair: must be atomic as a whole.
				_ = lo.Load(t)
				_ = hi.Load(t)
			})
			t.Spawn(func(t *avd.Task) {
				lo.Store(t, 1)
				hi.Store(t, 2)
			})
		})
	})
	if s.Report().ViolationCount == 0 {
		t.Fatal("multi-variable violation not detected")
	}
	if got := s.Report().Stats.Locations; got != 1 {
		t.Errorf("grouped pair must occupy one metadata cell, got %d", got)
	}
}

func TestVarsAndArrays(t *testing.T) {
	s := avd.NewSession(avd.Options{Workers: 2})
	defer s.Close()
	iv := s.NewIntVar("i")
	fv := s.NewFloatVar("f")
	ia := s.NewIntArray("ia", 4)
	fa := s.NewFloatArray("fa", 4)
	if iv.Name() != "i" || fv.Name() != "f" || ia.Name() != "ia" || fa.Name() != "fa" {
		t.Error("names lost")
	}
	if ia.Len() != 4 || fa.Len() != 4 {
		t.Error("lengths wrong")
	}
	s.Run(func(tk *avd.Task) {
		iv.Store(tk, 41)
		if iv.Add(tk, 1) != 42 || iv.Load(tk) != 42 {
			t.Error("IntVar arithmetic wrong")
		}
		fv.Store(tk, 1.5)
		if fv.Add(tk, 1.0) != 2.5 || fv.Load(tk) != 2.5 {
			t.Error("FloatVar arithmetic wrong")
		}
		ia.Store(tk, 2, 7)
		if ia.Add(tk, 2, 3) != 10 || ia.Load(tk, 2) != 10 {
			t.Error("IntArray arithmetic wrong")
		}
		fa.Store(tk, 1, 0.25)
		if fa.Add(tk, 1, 0.25) != 0.5 || fa.Load(tk, 1) != 0.5 {
			t.Error("FloatArray arithmetic wrong")
		}
	})
	if iv.Value() != 42 || fv.Value() != 2.5 || ia.Value(2) != 10 || fa.Value(1) != 0.5 {
		t.Error("uninstrumented Value accessors wrong")
	}
	if ia.LocAt(1) != ia.LocAt(0)+1 || fa.LocAt(3) != fa.LocAt(0)+3 {
		t.Error("array element locations must be contiguous")
	}
	// Single-task accesses never violate atomicity.
	if s.Report().ViolationCount != 0 {
		t.Errorf("sequential run must be violation-free: %v", s.Report().Violations)
	}
}

func TestCheckerKindStrings(t *testing.T) {
	names := map[avd.CheckerKind]string{
		avd.CheckerOptimized: "our-prototype",
		avd.CheckerBasic:     "basic",
		avd.CheckerVelodrome: "velodrome",
		avd.CheckerNone:      "baseline",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: got %q want %q", k, k.String(), want)
		}
	}
	if avd.CheckerKind(42).String() == "" {
		t.Error("unknown kind must format")
	}
}

func TestStatsUniquePercent(t *testing.T) {
	st := avd.Stats{LCAQueries: 200, UniqueLCAs: 50}
	if st.UniquePercent() != 25 {
		t.Errorf("UniquePercent = %f, want 25", st.UniquePercent())
	}
	if (avd.Stats{}).UniquePercent() != 0 {
		t.Error("zero queries must report 0 (the paper's -NA-)")
	}
}

func TestStrictLockOption(t *testing.T) {
	run := func(strict bool) int64 {
		s := avd.NewSession(avd.Options{Workers: 2, StrictLockChecks: strict})
		defer s.Close()
		x := s.NewIntVar("X")
		l := s.NewMutex("L")
		s.Run(func(t *avd.Task) {
			t.Finish(func(t *avd.Task) {
				t.Spawn(func(t *avd.Task) {
					l.Lock(t)
					a := x.Load(t)
					x.Store(t, a+1)
					l.Unlock(t)
				})
				t.Spawn(func(t *avd.Task) {
					x.Store(t, 5) // unsynchronized parallel write
				})
			})
		})
		return s.Report().ViolationCount
	}
	if got := run(false); got != 0 {
		t.Errorf("paper mode reported %d violations for same-CS pair", got)
	}
	if got := run(true); got == 0 {
		t.Error("strict mode must report the racy tear")
	}
}
