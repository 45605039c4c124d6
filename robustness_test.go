package avd_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// sameLocs compares two violating-location sets.
func sameLocs(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for l := range a {
		if !b[l] {
			return false
		}
	}
	return true
}

// TestChaosDifferentialViolations is the schedule-stability acceptance
// test: on random structured programs, the deduplicated set of violating
// locations must be identical between an unperturbed run and runs whose
// schedule is deliberately mangled by forced steals and injected delays.
// This is the empirical counterpart of the paper's claim that the
// checker's verdict depends only on the program and its input, never on
// the observed interleaving.
func TestChaosDifferentialViolations(t *testing.T) {
	r := rand.New(rand.NewSource(9090))
	var totalSteals, totalDelays int64
	for trial := 0; trial < 200; trial++ {
		cfg := sptest.GenConfig{
			MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
			Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
		}
		p := sptest.Random(r, cfg)
		base := execProgram(p, cfg, avd.Options{Workers: 4})
		for seed := int64(1); seed <= 3; seed++ {
			got, _, cs := execProgramFull(p, cfg, avd.Options{
				Workers: 4,
				Chaos: &avd.ChaosConfig{
					Seed:          seed,
					StealProb:     0.3,
					DelayProb:     0.2,
					MaxDelaySpins: 16,
				},
			})
			totalSteals += cs.ForcedSteals
			totalDelays += cs.InjectedDelays
			if !sameLocs(base, got) {
				t.Fatalf("trial %d seed %d: perturbed run detected %v, unperturbed %v\nprogram:\n%s",
					trial, seed, got, base, p)
			}
		}
	}
	if totalSteals == 0 || totalDelays == 0 {
		t.Fatalf("perturbation never fired (steals=%d delays=%d); the chaos plane is not wired into the scheduler",
			totalSteals, totalDelays)
	}
}

// TestChaosMHPModesAgree runs the same perturbed program with the
// label-based and walk-based MHP mechanisms: forced stealing reorders
// DPST construction across workers, and both mechanisms must still
// report the same violating locations.
func TestChaosMHPModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(3131))
	for trial := 0; trial < 60; trial++ {
		cfg := sptest.GenConfig{
			MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
			Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
		}
		p := sptest.Random(r, cfg)
		ch := &avd.ChaosConfig{Seed: int64(trial), StealProb: 0.4, DelayProb: 0.2, MaxDelaySpins: 8}
		labels := execProgram(p, cfg, avd.Options{Workers: 4, MHP: avd.MHPLabels, Chaos: ch})
		walk := execProgram(p, cfg, avd.Options{Workers: 4, MHP: avd.MHPWalk, Chaos: ch})
		if !sameLocs(labels, walk) {
			t.Fatalf("trial %d: labels detected %v, walk detected %v\nprogram:\n%s",
				trial, labels, walk, p)
		}
	}
}

// TestInjectedPanicsPartialReport exercises the hardened lifecycle end to
// end: with RecoverPanics set, chaos-injected task panics are recovered
// into Report.TaskPanics, the surviving siblings still run, Run returns
// normally, and because the panic decision is a pure function of (seed,
// task ID) the crashed set is predictable in advance.
func TestInjectedPanicsPartialReport(t *testing.T) {
	const (
		seed     = int64(12)
		children = 24
		prob     = 0.4
	)
	plane := chaos.New(chaos.Config{Seed: seed, PanicProb: prob})
	predicted := map[int32]bool{}
	for id := int32(1); id <= children; id++ {
		if plane.PanicTask(id) {
			predicted[id] = true
		}
	}
	if len(predicted) == 0 || len(predicted) == children {
		t.Fatalf("seed %d predicts %d/%d crashes; pick a seed with a mixed outcome", seed, len(predicted), children)
	}

	s := avd.NewSession(avd.Options{
		Workers:       2,
		RecoverPanics: true,
		Chaos:         &avd.ChaosConfig{Seed: seed, PanicProb: prob},
	})
	defer s.Close()
	var survived atomic.Int64
	s.Run(func(t *avd.Task) {
		t.Finish(func(ft *avd.Task) {
			for i := 0; i < children; i++ {
				ft.Spawn(func(*avd.Task) { survived.Add(1) })
			}
		})
	})
	rep := s.Report()
	if got, want := rep.PanicCount, int64(len(predicted)); got != want {
		t.Fatalf("PanicCount = %d, predicted %d crashes", got, want)
	}
	if got, want := survived.Load(), int64(children-len(predicted)); got != want {
		t.Fatalf("%d children ran, want %d survivors", got, want)
	}
	for _, tp := range rep.TaskPanics {
		ip, ok := tp.Value.(avd.InjectedPanic)
		if !ok {
			t.Fatalf("recovered panic value %T (%v), want InjectedPanic", tp.Value, tp.Value)
		}
		if !predicted[ip.Task] {
			t.Fatalf("task %d crashed but was not predicted to", ip.Task)
		}
		if tp.Task != ip.Task {
			t.Fatalf("panic recorded against task %d, value names task %d", tp.Task, ip.Task)
		}
		if tp.Stack == "" {
			t.Fatal("recovered panic carries no stack")
		}
	}
	if got := s.ChaosStats().InjectedPanics; got != int64(len(predicted)) {
		t.Fatalf("plane counted %d injected panics, predicted %d", got, len(predicted))
	}
}

// TestPanicRethrownWithoutRecover checks the default contract: without
// RecoverPanics, a panic that escapes a task unwinds out of Run with its
// original value after the computation has joined.
func TestPanicRethrownWithoutRecover(t *testing.T) {
	s := avd.NewSession(avd.Options{
		Workers: 2,
		Chaos:   &avd.ChaosConfig{Seed: 1, PanicProb: 1},
	})
	defer s.Close()
	var rec any
	func() {
		defer func() { rec = recover() }()
		s.Run(func(t *avd.Task) {
			t.Finish(func(ft *avd.Task) {
				ft.Spawn(func(*avd.Task) {})
			})
		})
	}()
	ip, ok := rec.(avd.InjectedPanic)
	if !ok {
		t.Fatalf("Run panicked with %T (%v), want InjectedPanic", rec, rec)
	}
	if ip.Task == 0 {
		t.Fatal("injected panic claims the exempt root task")
	}
	// The panic is still recorded, so post-mortem reports see it too.
	if rep := s.Report(); rep.PanicCount == 0 {
		t.Fatal("re-raised panic was not recorded in the report")
	}
}

// TestMemoryBudgetSaturation is the bounded-resource acceptance test: a
// workload whose metadata demand far exceeds the budget must complete
// without panicking, report Saturated with location drops, and never
// charge more tracked bytes than the budget allows.
func TestMemoryBudgetSaturation(t *testing.T) {
	const (
		locations = 50_000
		budget    = int64(128 << 10)
	)
	s := avd.NewSession(avd.Options{Workers: 4, MemoryBudget: budget})
	defer s.Close()
	arr := s.NewIntArray("big", locations)
	s.Run(func(t *avd.Task) {
		avd.ParallelFor(t, 0, locations, 256, func(t *avd.Task, i int) {
			arr.Add(t, i, 1)
		})
	})
	rep := s.Report()
	if !rep.Saturated {
		t.Fatal("a 50k-location run against a 128KiB budget must saturate")
	}
	if rep.Drops.Locations == 0 {
		t.Fatal("saturated run shed no locations")
	}
	if rep.MemoryUsed > budget {
		t.Fatalf("tracked bytes %d exceed the %d budget", rep.MemoryUsed, budget)
	}
	if rep.MemoryUsed == 0 {
		t.Fatal("no tracked bytes charged; the gate is not wired to the budget")
	}
	// The computation itself must be unharmed by the degraded analysis.
	for _, i := range []int{0, locations / 2, locations - 1} {
		if arr.Value(i) != 1 {
			t.Fatalf("element %d = %d after the run, want 1", i, arr.Value(i))
		}
	}
}

// TestMaxViolationsCap checks the reporter bound: distinct violations
// beyond MaxViolations are counted as drops, not admitted, and the
// report says so.
func TestMaxViolationsCap(t *testing.T) {
	const elems = 20
	s := avd.NewSession(avd.Options{Workers: 1, MaxViolations: 5})
	defer s.Close()
	arr := s.NewIntArray("a", elems)
	s.Run(func(t *avd.Task) {
		t.Finish(func(ft *avd.Task) {
			for k := 0; k < 2; k++ {
				ft.Spawn(func(ct *avd.Task) {
					for i := 0; i < elems; i++ {
						arr.Add(ct, i, 1)
					}
				})
			}
		})
	})
	rep := s.Report()
	if rep.ViolationCount == 0 || rep.ViolationCount > 5 {
		t.Fatalf("ViolationCount = %d, want in [1, 5]", rep.ViolationCount)
	}
	if len(rep.Violations) > 5 {
		t.Fatalf("%d violations retained past the cap", len(rep.Violations))
	}
	if rep.Drops.Violations == 0 {
		t.Fatalf("parallel RMWs on %d elements against a cap of 5 dropped nothing", elems)
	}
	if !rep.Saturated {
		t.Fatal("a capped report must be marked Saturated")
	}
}

// TestSessionUsageErrors covers the typed-misuse contract at the public
// API: stale sessions and cross-session handles raise *UsageError, not
// raw panics or silent corruption.
func TestSessionUsageErrors(t *testing.T) {
	t.Run("run-after-close", func(t *testing.T) {
		s := avd.NewSession(avd.Options{Workers: 1})
		s.Run(func(*avd.Task) {})
		s.Close()
		var rec any
		func() {
			defer func() { rec = recover() }()
			s.Run(func(*avd.Task) {}) //avdlint:ignore deliberate misuse: exercises the runtime UsageError
		}()
		ue, ok := rec.(*avd.UsageError)
		if !ok {
			t.Fatalf("expected *UsageError, got %T: %v", rec, rec)
		}
		if ue.Op != "Scheduler.Run" || !strings.Contains(ue.Detail, "after Close") {
			t.Fatalf("unexpected error %v", ue)
		}
	})

	t.Run("cross-session-var", func(t *testing.T) {
		s1 := avd.NewSession(avd.Options{Workers: 1})
		defer s1.Close()
		s2 := avd.NewSession(avd.Options{Workers: 1})
		defer s2.Close()
		x := s1.NewIntVar("x")
		var rec any
		func() {
			defer func() { rec = recover() }()
			s2.Run(func(t *avd.Task) { x.Load(t) }) //avdlint:ignore deliberate misuse: exercises the runtime UsageError
		}()
		ue, ok := rec.(*avd.UsageError)
		if !ok {
			t.Fatalf("expected *UsageError, got %T: %v", rec, rec)
		}
		if ue.Op != "IntVar.Load" || !strings.Contains(ue.Detail, "different session") {
			t.Fatalf("unexpected error %v", ue)
		}
	})

	t.Run("cross-session-mutex", func(t *testing.T) {
		s1 := avd.NewSession(avd.Options{Workers: 1})
		defer s1.Close()
		s2 := avd.NewSession(avd.Options{Workers: 1})
		defer s2.Close()
		m := s1.NewMutex("m")
		var rec any
		func() {
			defer func() { rec = recover() }()
			s2.Run(func(t *avd.Task) { m.Lock(t) }) //avdlint:ignore deliberate misuse: exercises the runtime UsageError
		}()
		if ue, ok := rec.(*avd.UsageError); !ok || ue.Op != "Mutex.Lock" {
			t.Fatalf("expected Mutex.Lock *UsageError, got %T: %v", rec, rec)
		}
	})
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (worker shutdown is asynchronous after Close returns only in
// the sense that the runtime needs a moment to reap exited goroutines).
func waitForGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines alive, baseline %d\n%s",
				what, runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines is the leak regression test: Close must
// reap every worker after a clean run, after a recovered task panic, and
// after a panic that unwound out of Run mid-Finish.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := avd.NewSession(avd.Options{Workers: 4})
		x := s.NewIntVar("x")
		s.Run(func(t *avd.Task) {
			t.Finish(func(ft *avd.Task) {
				for i := 0; i < 32; i++ {
					ft.Spawn(func(ct *avd.Task) { x.Add(ct, 1) })
				}
			})
		})
		s.Close()
		waitForGoroutines(t, baseline, "clean run")
	})

	t.Run("recovered-panic", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := avd.NewSession(avd.Options{Workers: 4, RecoverPanics: true})
		s.Run(func(t *avd.Task) {
			t.Finish(func(ft *avd.Task) {
				for i := 0; i < 8; i++ {
					ft.Spawn(func(*avd.Task) { panic(fmt.Sprintf("boom %d", i)) })
				}
			})
		})
		if rep := s.Report(); rep.PanicCount != 8 {
			t.Fatalf("PanicCount = %d, want 8", rep.PanicCount)
		}
		s.Close()
		waitForGoroutines(t, baseline, "recovered panic")
	})

	t.Run("rethrown-panic-mid-finish", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		s := avd.NewSession(avd.Options{Workers: 4})
		var rec any
		func() {
			defer func() { rec = recover() }()
			s.Run(func(t *avd.Task) {
				t.Finish(func(ft *avd.Task) {
					for i := 0; i < 8; i++ {
						ft.Spawn(func(*avd.Task) {})
					}
					panic("mid-finish")
				})
			})
		}()
		if rec != "mid-finish" {
			t.Fatalf("Run panicked with %v, want the original value", rec)
		}
		s.Close()
		waitForGoroutines(t, baseline, "rethrown panic")
	})
}

// TestBoundedHarnessConfigs smoke-tests the harness presets added for the
// robustness evaluation: a bounded and a chaotic configuration must both
// produce runnable sessions.
func TestBoundedHarnessConfigs(t *testing.T) {
	for _, opts := range []avd.Options{
		{Workers: 2, MemoryBudget: 1 << 20},
		{Workers: 2, Chaos: &avd.ChaosConfig{Seed: 5, StealProb: 0.2, DelayProb: 0.1}},
	} {
		s := avd.NewSession(opts)
		x := s.NewIntVar("x")
		s.Run(func(t *avd.Task) {
			t.Finish(func(ft *avd.Task) {
				ft.Spawn(func(ct *avd.Task) { x.Add(ct, 1) })
				ft.Spawn(func(ct *avd.Task) { x.Store(ct, 7) })
			})
		})
		if rep := s.Report(); rep.ViolationCount == 0 {
			t.Fatalf("opts %+v: the textbook violation went undetected", opts)
		}
		s.Close()
	}
}

// locationZeroUpload is a Figure 1-shaped upload whose accesses omit
// "l", so every access decodes to location 0 — the checkers' empty-slot
// marker.
const locationZeroUpload = `{"tasks":3,"events":[{"k":1,"t":0},{"k":0,"t":0,"c":1},{"k":0,"t":0,"c":2},` +
	`{"k":3,"t":1},{"k":3,"t":2,"w":true},{"k":3,"t":1,"w":true},{"k":6,"t":1},{"k":6,"t":2},{"k":2,"t":0}]}`

// TestLocationZero pins that accesses outside [1, LockLocBase) are
// refused with a typed error at decode and at replay, on both dispatch
// paths, instead of aliasing an empty slot (or crashing the coalescer),
// while lock 0 and critical section 0 stay valid.
func TestLocationZero(t *testing.T) {
	if _, err := trace.Decode(strings.NewReader(locationZeroUpload)); !errors.Is(err, trace.ErrBadLocation) {
		t.Fatalf("decode of an access without a location: err %v, want ErrBadLocation", err)
	}
	for _, loc := range []avd.Loc{0, trace.LockLocBase, trace.LockLocBase + 7} {
		tr := &avd.Trace{Tasks: 1, Events: []trace.Event{
			{Kind: trace.KAccess, Task: 0, Loc: 1, Write: true},
			{Kind: trace.KAccess, Task: 0, Loc: loc},
			{Kind: trace.KTaskEnd, Task: 0},
		}}
		for _, opts := range []avd.Options{{}, {Batch: true}, {Checker: avd.CheckerVelodrome}} {
			if _, err := avd.ReplayTrace(tr, opts); !errors.Is(err, trace.ErrBadLocation) {
				t.Errorf("loc %d opts %+v: replay err %v, want ErrBadLocation", loc, opts, err)
			}
		}
	}
	ok := &avd.Trace{Tasks: 1, Events: []trace.Event{
		{Kind: trace.KAcquire, Task: 0, Lock: 0, CS: 0},
		{Kind: trace.KAccess, Task: 0, Loc: trace.LockLocBase - 1, Write: true},
		{Kind: trace.KRelease, Task: 0, Lock: 0, CS: 0},
		{Kind: trace.KTaskEnd, Task: 0},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("lock 0, CS 0 and the highest data location must stay valid: %v", err)
	}
}
