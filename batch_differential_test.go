package avd_test

import (
	"math/rand"
	"reflect"
	"testing"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/oracle"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// The step-granular access coalescer must be invisible in the checker's
// output: buffering a step's accesses and dispatching them at the next
// step or lock boundary reorders nothing (flush order is buffer order)
// and drops only accesses the dedup engine proves are no-op repeats of
// ones already buffered for the same step and lockset. The tests in
// this file compare a batched checker against an unbatched one on the
// same inputs, at three strengths: byte-identical violation reports on
// serial traces, identical violated location sets on random
// interleavings, and identical location sets between live scheduler
// runs — plus oracle anchors for both paths.

// filterCfg generates programs whose steps run long enough, and revisit
// locations often enough, for the batch deduplicator and the elision
// cache to engage — otherwise the differential comparisons are vacuous
// (hammerProgram guarantees at least one engaged task regardless).
func filterCfg() sptest.GenConfig {
	return sptest.GenConfig{
		MaxItems: 5, MaxDepth: 3, MaxSteps: 14,
		Locations: 2, MaxAccess: 8, Locks: 2, LockProb: 0.3,
	}
}

// hammerProgram is a hand-built program that forces the deduplicator to
// engage: one long step re-reading and re-writing two locations, with a
// parallel writer making the locations genuinely racy.
func hammerProgram() *sptest.Program {
	step := &sptest.StepItem{ID: 1}
	for i := 0; i < 90; i++ {
		step.Accesses = append(step.Accesses,
			sptest.Access{Loc: 0, Write: i%4 == 3, Lock: -1, CS: -1},
			sptest.Access{Loc: 1, Write: false, Lock: -1, CS: -1})
	}
	writer := &sptest.StepItem{ID: 2, Accesses: []sptest.Access{
		{Loc: 0, Write: true, Lock: -1, CS: -1},
		{Loc: 1, Write: true, Lock: -1, CS: -1},
	}}
	return &sptest.Program{Body: []sptest.Item{
		&sptest.FinishItem{Body: []sptest.Item{
			&sptest.SpawnItem{Body: []sptest.Item{step}},
			writer,
		}},
	}}
}

// replayBatchPair replays tr under opts with batching on and off and
// returns both reports.
func replayBatchPair(t *testing.T, tr *avd.Trace, opts avd.Options) (on, off avd.Report) {
	t.Helper()
	opts.Batch = true
	on, err := avd.ReplayTrace(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Batch = false
	off, err = avd.ReplayTrace(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return on, off
}

// TestBatchDifferentialExactReports is the strongest form of the
// output-invisibility property: on a serial (depth-first, one-worker)
// schedule, where every step's accesses are contiguous, the batched and
// unbatched checkers must produce byte-identical violation reports —
// same violations, same order, same steps and locksets — in paper mode,
// strict-lock mode, and under injected allocation failures. It also
// covers the batch+no-dedup corner: with the dedup engine disabled,
// every buffered access must dispatch, matching the unbatched checker
// exactly.
func TestBatchDifferentialExactReports(t *testing.T) {
	r := rand.New(rand.NewSource(7801))
	var batched, hits int64
	programs := []*sptest.Program{hammerProgram()}
	for trial := 0; trial < 120; trial++ {
		programs = append(programs, sptest.Random(r, filterCfg()))
	}
	for i, p := range programs {
		tr, err := trace.Compile(p).ScheduleSerial()
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, opts := range []avd.Options{
			{},
			{StrictLockChecks: true},
			{Chaos: &avd.ChaosConfig{Seed: int64(i), AllocFailProb: 0.05}},
			{DisableAccessFilter: true},
		} {
			on, off := replayBatchPair(t, tr, opts)
			if on.ViolationCount != off.ViolationCount ||
				!reflect.DeepEqual(on.Violations, off.Violations) {
				t.Fatalf("program %d opts %+v: batched report differs\nbatched:   %v\nunbatched: %v\nprogram:\n%s",
					i, opts, on.Violations, off.Violations, p)
			}
			if on.Stats.BatchedAccesses == 0 && on.Stats.BatchFlushes != 0 {
				t.Fatalf("program %d: flushes without batched accesses", i)
			}
			if off.Stats.BatchFlushes != 0 || off.Stats.BatchedAccesses != 0 {
				t.Fatalf("program %d: unbatched checker reported batch counters %d/%d",
					i, off.Stats.BatchFlushes, off.Stats.BatchedAccesses)
			}
			if opts.DisableAccessFilter &&
				(on.Stats.FilterHits != 0 || on.Stats.FilterMisses != 0) {
				t.Fatalf("program %d: batched dedup-off run reported dedup counters %d/%d",
					i, on.Stats.FilterHits, on.Stats.FilterMisses)
			}
			batched += on.Stats.BatchedAccesses
			hits += on.Stats.FilterHits
		}
	}
	if batched == 0 {
		t.Fatal("no accesses were ever batched across all trials; the differential test is vacuous")
	}
	if hits == 0 {
		t.Fatal("the batch dedup engine never engaged across all trials; the differential test is vacuous")
	}
}

// TestBatchDifferentialRandomSchedules replays random interleavings of
// the same compiled programs: step accesses are no longer contiguous,
// so the metadata evolution may differ slot-by-slot, but the set of
// violated locations must not.
func TestBatchDifferentialRandomSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(7802))
	for trial := 0; trial < 100; trial++ {
		p := sptest.Random(r, filterCfg())
		tr, err := trace.FromProgram(p, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		on, off := replayBatchPair(t, tr, avd.Options{})
		if !reflect.DeepEqual(violLocs(on), violLocs(off)) {
			t.Fatalf("trial %d: batched locations %v, unbatched %v\nprogram:\n%s",
				trial, violLocs(on), violLocs(off), p)
		}
	}
}

// TestBatchDifferentialLive runs programs on the real work-stealing
// scheduler with batching on and off (including chaos-perturbed
// schedules): by the checker's schedule-independence, both sessions
// must report the same violated locations.
func TestBatchDifferentialLive(t *testing.T) {
	r := rand.New(rand.NewSource(7803))
	cfg := filterCfg()
	for trial := 0; trial < 40; trial++ {
		p := sptest.Random(r, cfg)
		var chaos *avd.ChaosConfig
		if trial%2 == 1 {
			chaos = &avd.ChaosConfig{Seed: int64(trial), StealProb: 0.3, DelayProb: 0.2, MaxDelaySpins: 8}
		}
		on := execProgram(p, cfg, avd.Options{Workers: 4, Chaos: chaos, Batch: true})
		off := execProgram(p, cfg, avd.Options{Workers: 4, Chaos: chaos})
		if !sameLocs(on, off) {
			t.Fatalf("trial %d: batched live run detected %v, unbatched %v\nprogram:\n%s",
				trial, on, off, p)
		}
	}
}

// TestFilterSerialReplayMatchesOracle anchors the default (unbatched)
// path in ground truth: on programs small enough for the all-schedules
// oracle, the serial replay detects exactly the violating locations the
// oracle predicts (the serial interleaving loses no violations, because
// detection is DPST- not schedule-based). The batch and elision
// differentials compare against this path.
func TestFilterSerialReplayMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7704))
	for trial := 0; trial < 60; trial++ {
		cfg := sptest.GenConfig{
			MaxItems: 4, MaxDepth: 3, MaxSteps: 10,
			Locations: 2, MaxAccess: 6, Locks: 1, LockProb: 0.25,
		}
		p := sptest.Random(r, cfg)
		tr, err := trace.Compile(p).ScheduleSerial()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := avd.ReplayTrace(tr, avd.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make(map[int]bool)
		for _, v := range rep.Violations {
			got[int(v.Loc-trace.LocBase)] = true
		}
		want := oracle.Violations(sptest.Build(dpst.ArrayLayout, p), oracle.ModePaper)
		if !sameLocs(got, want) {
			t.Fatalf("trial %d: serial replay %v, oracle %v\nprogram:\n%s",
				trial, got, want, p)
		}
	}
}

// TestBatchSerialReplayMatchesOracle anchors the serial-schedule
// differential in ground truth: on programs small enough for the
// all-schedules oracle, the batched serial replay detects exactly the
// violating locations the oracle predicts.
func TestBatchSerialReplayMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7804))
	for trial := 0; trial < 60; trial++ {
		cfg := sptest.GenConfig{
			MaxItems: 4, MaxDepth: 3, MaxSteps: 10,
			Locations: 2, MaxAccess: 6, Locks: 1, LockProb: 0.25,
		}
		p := sptest.Random(r, cfg)
		tr, err := trace.Compile(p).ScheduleSerial()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := avd.ReplayTrace(tr, avd.Options{Batch: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make(map[int]bool)
		for _, v := range rep.Violations {
			got[int(v.Loc-trace.LocBase)] = true
		}
		want := oracle.Violations(sptest.Build(dpst.ArrayLayout, p), oracle.ModePaper)
		if !sameLocs(got, want) {
			t.Fatalf("trial %d: serial batched replay %v, oracle %v\nprogram:\n%s",
				trial, got, want, p)
		}
	}
}

// The window-elision front end (DESIGN.md §4.3) must be just as
// invisible as the coalescer it fronts: an access the handle layer
// elides is one the batch deduplicator would have skipped, so enabling
// or disabling elision may shift counter attribution (dedup hits become
// window elisions) but never the violation report. The tests below
// mirror the batch differential at the same strengths, comparing a
// batched checker with elision on against one with
// Options.DisableWindowElision.

// replayElisionPair replays tr batched with window elision on and off
// and returns both reports.
func replayElisionPair(t *testing.T, tr *avd.Trace, opts avd.Options) (on, off avd.Report) {
	t.Helper()
	opts.Batch = true
	opts.DisableWindowElision = false
	on, err := avd.ReplayTrace(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableWindowElision = true
	off, err = avd.ReplayTrace(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return on, off
}

// TestElisionDifferentialExactReports: on serial schedules the two runs
// must produce byte-identical violation reports in paper mode, strict
// mode, under injected allocation failures, and in the dedup-off
// corner — where disabling the deduplicator implies no elision either,
// so the reports must still agree while both elision counters stay zero.
func TestElisionDifferentialExactReports(t *testing.T) {
	r := rand.New(rand.NewSource(7901))
	var elided int64
	programs := []*sptest.Program{hammerProgram()}
	for trial := 0; trial < 120; trial++ {
		programs = append(programs, sptest.Random(r, filterCfg()))
	}
	for i, p := range programs {
		tr, err := trace.Compile(p).ScheduleSerial()
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		for _, opts := range []avd.Options{
			{},
			{StrictLockChecks: true},
			{Chaos: &avd.ChaosConfig{Seed: int64(i), AllocFailProb: 0.05}},
			{DisableAccessFilter: true},
		} {
			on, off := replayElisionPair(t, tr, opts)
			if on.ViolationCount != off.ViolationCount ||
				!reflect.DeepEqual(on.Violations, off.Violations) {
				t.Fatalf("program %d opts %+v: elision report differs\nelision:    %v\nno elision: %v\nprogram:\n%s",
					i, opts, on.Violations, off.Violations, p)
			}
			if off.Stats.WindowElisions != 0 {
				t.Fatalf("program %d: elision-off run reported %d window elisions",
					i, off.Stats.WindowElisions)
			}
			if opts.DisableAccessFilter && on.Stats.WindowElisions != 0 {
				t.Fatalf("program %d: dedup-off run reported %d window elisions (dedup off implies elision off)",
					i, on.Stats.WindowElisions)
			}
			// Attribution may shift between the two counters, but the total
			// skipped+dispatched work is conserved: every access is elided,
			// deduplicated, or dispatched under both configurations.
			if onTot, offTot := on.Stats.WindowElisions+on.Stats.FilterHits+on.Stats.FilterMisses,
				off.Stats.FilterHits+off.Stats.FilterMisses; onTot != offTot {
				t.Fatalf("program %d opts %+v: access accounting differs: %d with elision, %d without",
					i, opts, onTot, offTot)
			}
			elided += on.Stats.WindowElisions
		}
	}
	if elided == 0 {
		t.Fatal("the window-elision cache never engaged across all trials; the differential test is vacuous")
	}
}

// TestElisionDifferentialRandomSchedules replays random interleavings:
// the violated location sets must agree.
func TestElisionDifferentialRandomSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(7902))
	for trial := 0; trial < 100; trial++ {
		p := sptest.Random(r, filterCfg())
		tr, err := trace.FromProgram(p, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		on, off := replayElisionPair(t, tr, avd.Options{})
		if !reflect.DeepEqual(violLocs(on), violLocs(off)) {
			t.Fatalf("trial %d: elision locations %v, no-elision %v\nprogram:\n%s",
				trial, violLocs(on), violLocs(off), p)
		}
	}
}

// TestElisionDifferentialLive runs programs on the real work-stealing
// scheduler (including chaos-perturbed schedules): the handle layer's
// elision probe in sched.Task.Access must not change the detected
// location set.
func TestElisionDifferentialLive(t *testing.T) {
	r := rand.New(rand.NewSource(7903))
	cfg := filterCfg()
	for trial := 0; trial < 40; trial++ {
		p := sptest.Random(r, cfg)
		var chaos *avd.ChaosConfig
		if trial%2 == 1 {
			chaos = &avd.ChaosConfig{Seed: int64(trial), StealProb: 0.3, DelayProb: 0.2, MaxDelaySpins: 8}
		}
		on := execProgram(p, cfg, avd.Options{Workers: 4, Chaos: chaos, Batch: true})
		off := execProgram(p, cfg, avd.Options{Workers: 4, Chaos: chaos, Batch: true, DisableWindowElision: true})
		if !sameLocs(on, off) {
			t.Fatalf("trial %d: elision live run detected %v, no-elision %v\nprogram:\n%s",
				trial, on, off, p)
		}
	}
}

// TestElisionSerialReplayMatchesOracle anchors the elision differential
// in ground truth: the batched, eliding serial replay detects exactly
// the violating locations the all-schedules oracle predicts.
func TestElisionSerialReplayMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7904))
	for trial := 0; trial < 60; trial++ {
		cfg := sptest.GenConfig{
			MaxItems: 4, MaxDepth: 3, MaxSteps: 10,
			Locations: 2, MaxAccess: 6, Locks: 1, LockProb: 0.25,
		}
		p := sptest.Random(r, cfg)
		tr, err := trace.Compile(p).ScheduleSerial()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := avd.ReplayTrace(tr, avd.Options{Batch: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := make(map[int]bool)
		for _, v := range rep.Violations {
			got[int(v.Loc-trace.LocBase)] = true
		}
		want := oracle.Violations(sptest.Build(dpst.ArrayLayout, p), oracle.ModePaper)
		if !sameLocs(got, want) {
			t.Fatalf("trial %d: serial eliding replay %v, oracle %v\nprogram:\n%s",
				trial, got, want, p)
		}
	}
}
