package avd_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// TestSteadyStateZeroAllocs pins the hot-path allocation behaviour the
// lock-free shadow table and label-based MHP are designed for: once a
// location is warm (shadow cell published, step metadata offered), an
// instrumented Load or Store must not allocate at all.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the duration of the
// closure, so the measurement runs inside a single-worker session and
// the measured closure never spawns or blocks.
func TestSteadyStateZeroAllocs(t *testing.T) {
	s := avd.NewSession(avd.Options{Workers: 1})
	defer s.Close()
	x := s.NewIntVar("X")
	var loadAllocs, storeAllocs float64
	s.Run(func(tk *avd.Task) {
		// Warm: publish the shadow cell and settle the per-step
		// offer-once metadata for this location.
		x.Store(tk, 1)
		_ = x.Load(tk)
		_ = x.Load(tk)
		x.Store(tk, 2)
		loadAllocs = testing.AllocsPerRun(200, func() { _ = x.Load(tk) })
		storeAllocs = testing.AllocsPerRun(200, func() { x.Store(tk, 3) })
	})
	if loadAllocs != 0 {
		t.Errorf("IntVar.Load allocates %.1f objects per op on a warm location, want 0", loadAllocs)
	}
	if storeAllocs != 0 {
		t.Errorf("IntVar.Store allocates %.1f objects per op on a warm location, want 0", storeAllocs)
	}
	if got := x.Value(); got != 3 {
		t.Fatalf("final value %d, want 3", got)
	}
}

// TestBatchedLockedRepeatZeroAllocs mirrors TestLockedRepeatZeroAllocs
// with the step-granular access coalescer in front of the checker: a
// warm lock/load/store/unlock round must stay allocation-free even
// though each lock transition drains the batch through the full
// dispatch path. The batch buffer, dedup table, and counters are all
// fixed-size per-task state allocated before the measurement.
func TestBatchedLockedRepeatZeroAllocs(t *testing.T) {
	for _, disable := range []bool{false, true} {
		name := "dedup"
		if disable {
			name = "nodedup"
		}
		t.Run(name, func(t *testing.T) {
			s := avd.NewSession(avd.Options{Workers: 1, Batch: true, DisableAccessFilter: disable})
			defer s.Close()
			x := s.NewIntVar("X")
			mu := s.NewMutex("L")
			var allocs float64
			s.Run(func(tk *avd.Task) {
				// Warm: allocate the batch space, shadow cell, local
				// entry, and lockset arenas.
				for i := 0; i < 96; i++ {
					mu.Lock(tk)
					x.Store(tk, x.Load(tk)+1)
					mu.Unlock(tk)
				}
				allocs = testing.AllocsPerRun(200, func() {
					mu.Lock(tk)
					x.Store(tk, x.Load(tk)+1)
					mu.Unlock(tk)
				})
			})
			if allocs != 0 {
				t.Errorf("batched locked load+store round allocates %.1f objects per op on a warm location, want 0", allocs)
			}
			rep := s.Report()
			if rep.Stats.BatchFlushes == 0 || rep.Stats.BatchedAccesses == 0 {
				t.Errorf("coalescer never engaged: %d flushes of %d accesses",
					rep.Stats.BatchFlushes, rep.Stats.BatchedAccesses)
			}
			if disable && (rep.Stats.FilterHits != 0 || rep.Stats.FilterMisses != 0) {
				t.Errorf("disabled dedup reported counters %d/%d",
					rep.Stats.FilterHits, rep.Stats.FilterMisses)
			}
			if !disable && rep.Stats.FilterMisses == 0 {
				t.Errorf("batched dispatch reported no misses: the dedup engine cannot have run")
			}
		})
	}
}

// TestLockedRepeatZeroAllocs extends the steady-state pin to the locked
// hot path: once a task's local entry and lockset arenas are allocated,
// a lock/load/store/unlock round must not allocate, even though every
// locked access runs the full dispatch. Strict lock checking is
// deliberately left off — that mode retains lockset copies in the
// global metadata by design.
func TestLockedRepeatZeroAllocs(t *testing.T) {
	// The subtest name is kept from when a filter-on variant ran beside
	// it; "nofilter" is the default per-access path, now the only one.
	t.Run("nofilter", func(t *testing.T) {
		s := avd.NewSession(avd.Options{Workers: 1})
		defer s.Close()
		x := s.NewIntVar("X")
		mu := s.NewMutex("L")
		var allocs float64
		s.Run(func(tk *avd.Task) {
			// Warm with the same locked load+store pairs the measurement
			// runs, so the arena chunks are allocated here.
			for i := 0; i < 96; i++ {
				mu.Lock(tk)
				x.Store(tk, x.Load(tk)+1)
				mu.Unlock(tk)
			}
			allocs = testing.AllocsPerRun(200, func() {
				mu.Lock(tk)
				x.Store(tk, x.Load(tk)+1)
				mu.Unlock(tk)
			})
		})
		if allocs != 0 {
			t.Errorf("locked load+store round allocates %.1f objects per op on a warm location, want 0", allocs)
		}
		rep := s.Report()
		if rep.Stats.FilterHits != 0 || rep.Stats.FilterMisses != 0 {
			t.Errorf("per-access path reported dedup counters %d/%d, want 0/0",
				rep.Stats.FilterHits, rep.Stats.FilterMisses)
		}
	})
}

// TestWindowElisionZeroAllocs pins the saturated-window fast path on
// both handle shapes: once a window has proven read and write repeats
// redundant for the touched locations, the measured accesses are
// answered entirely inside Task.Access by the per-task elision cache —
// no batch buffer traffic, no dedup probe, and certainly no allocation.
// Unlike TestBatchedLockedRepeatZeroAllocs, the loop holds no lock, so
// the window (and with it the saturation facts) survives across the
// whole measurement.
func TestWindowElisionZeroAllocs(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		s := avd.NewSession(avd.Options{Workers: 1, Batch: true})
		defer s.Close()
		x := s.NewIntVar("X")
		var allocs float64
		s.Run(func(tk *avd.Task) {
			// Warm: saturate both access types for the window.
			for i := 0; i < 96; i++ {
				x.Store(tk, x.Load(tk)+1)
			}
			allocs = testing.AllocsPerRun(200, func() {
				x.Store(tk, x.Load(tk)+1)
			})
		})
		if allocs != 0 {
			t.Errorf("saturated scalar load+store allocates %.1f objects per op, want 0", allocs)
		}
		rep := s.Report()
		if rep.Stats.WindowElisions == 0 {
			t.Error("the window-elision cache never engaged on the scalar handle")
		}
	})
	t.Run("array", func(t *testing.T) {
		s := avd.NewSession(avd.Options{Workers: 1, Batch: true})
		defer s.Close()
		a := s.NewIntArray("A", 8)
		var allocs float64
		s.Run(func(tk *avd.Task) {
			for i := 0; i < 96; i++ {
				a.Store(tk, i%8, a.Load(tk, i%8)+1)
			}
			i := 0
			allocs = testing.AllocsPerRun(200, func() {
				a.Store(tk, i%8, a.Load(tk, i%8)+1)
				i++
			})
		})
		if allocs != 0 {
			t.Errorf("saturated array load+store allocates %.1f objects per op, want 0", allocs)
		}
		rep := s.Report()
		if rep.Stats.WindowElisions == 0 {
			t.Error("the window-elision cache never engaged on the array handle")
		}
	})
}

// TestTaskSpawnAllocBudget pins what one short task costs in heap bytes
// on the default checker: 4096 tasks spawned under one Finish, each
// loading and storing its own variable, in a plain and a locked
// variant. Most of the cost is the task's local space, whose entry and
// lockset chunks start small and double, so a task that touches one
// location does not pay for sixty-four.
func TestTaskSpawnAllocBudget(t *testing.T) {
	const tasks = 4096
	const budget = 2560 // bytes per task
	for _, locked := range []bool{false, true} {
		name := "plain"
		if locked {
			name = "locked"
		}
		t.Run(name, func(t *testing.T) {
			s := avd.NewSession(avd.Options{Workers: 1})
			defer s.Close()
			mu := s.NewMutex("L")
			vars := make([]*avd.IntVar, tasks)
			for i := range vars {
				vars[i] = s.NewIntVar(fmt.Sprintf("X%d", i))
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s.Run(func(tk *avd.Task) {
				tk.Finish(func(tk *avd.Task) {
					for _, x := range vars {
						tk.Spawn(func(tk *avd.Task) {
							if locked {
								mu.Lock(tk)
								defer mu.Unlock(tk)
							}
							x.Store(tk, x.Load(tk)+1)
						})
					}
				})
			})
			runtime.ReadMemStats(&after)
			if rep := s.Report(); rep.ViolationCount != 0 {
				t.Fatalf("%d violations on disjoint variables", rep.ViolationCount)
			}
			perTask := (after.TotalAlloc - before.TotalAlloc) / tasks
			t.Logf("%d B allocated per task", perTask)
			if perTask > budget {
				t.Errorf("%d B allocated per task, budget %d", perTask, budget)
			}
		})
	}
}

// seed4Trace is the trace of `avd-trace -gen -seed 4` (default
// generation flags): 43 events with violations at two locations.
func seed4Trace(t *testing.T) *avd.Trace {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	p := sptest.Random(r, sptest.GenConfig{
		MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
		Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
	})
	tr, err := trace.FromProgram(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 43 {
		t.Fatalf("seed-4 trace has %d events, want 43", len(tr.Events))
	}
	return tr
}

// TestFixedCostAllocBudgets pins the allocation count of building an
// analysis, which dominates a small replay. Only the cached walk
// allocates the LCA cache's 256 shard maps; the default label-mode
// query allocates its counter stripes and nothing else. Most of the
// replay's remaining objects are the provenance and report merging of
// its 14 violations.
func TestFixedCostAllocBudgets(t *testing.T) {
	tr := seed4Trace(t)
	replay := testing.AllocsPerRun(20, func() {
		if _, err := avd.ReplayTrace(tr, avd.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	session := testing.AllocsPerRun(20, func() {
		avd.NewSession(avd.Options{Workers: 1}).Close()
	})
	tree := dpst.NewArrayTree()
	query := testing.AllocsPerRun(20, func() {
		_ = dpst.NewQueryMode(tree, dpst.ModeLabels)
	})
	t.Logf("allocs: replay %.0f, session %.0f, label query %.0f", replay, session, query)
	for _, c := range []struct {
		name        string
		got, budget float64
	}{
		{"default ReplayTrace of the seed-4 trace", replay, 250},
		{"NewSession(Workers: 1) plus Close", session, 32},
		{"NewQueryMode(ModeLabels)", query, 2},
	} {
		if c.got > c.budget {
			t.Errorf("%s allocates %.0f objects, budget %.0f", c.name, c.got, c.budget)
		}
	}
}
