package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/harness"
)

// liveSamples are the wall times of interleaved baseline/checked reps,
// in milliseconds.
type liveSamples struct {
	base    [][]float64 // [prog][rep] under CheckerNone: scheduler and handles, no monitor
	checked [][]float64 // [prog][rep] under the default options
	rounds  []float64   // per round, the checked walls of all programs summed
	rssMB   []float64   // per round, the resident-set high-water mark
	traced  []bool      // per round, whether spans were recorded
	ops     int
	failed  int
}

// liveRounds runs rounds of every program until stop says so. Within a
// round the programs run in an order rotated by seed and round, each as
// a baseline rep and a checked rep whose order alternates, with a
// collection between reps so no rep pays for its predecessor's garbage.
// "Checked" is always the zero avd.Options a user gets (plus the worker
// count), so a change of default shows as a gain, not as a new column.
// With a tracer, even rounds record spans and odd ones do not.
func liveRounds(progs []*prog, workers int, seed int64, stop func(round int) bool, tr *tracer) *liveSamples {
	ls := &liveSamples{
		base:    make([][]float64, len(progs)),
		checked: make([][]float64, len(progs)),
	}
	configs := [2]avd.Options{
		{Workers: workers, Checker: avd.CheckerNone},
		{Workers: workers},
	}
	for round := 0; !stop(round); round++ {
		rt := tr
		if round%2 == 1 {
			rt = nil
		}
		var roundMs float64
		roundFailed := false
		for i := range progs {
			j := (i + round + int(seed&0xffff)) % len(progs)
			p := progs[j]
			op := int64(round*len(progs) + j)
			root := rt.begin("op", -1, op)
			// One op is a program's baseline rep and checked rep of this
			// round; it fails if either output is wrong.
			var opErr error
			for c := 0; c < 2; c++ {
				which := (c + round + i) % 2
				runtime.GC()
				sp := rt.begin([2]string{"sched.baseline", "avd.checked"}[which], root, op)
				run, err := p.live(configs[which])
				rt.end(sp)
				if err == nil && which == 1 && !sameLocs(run.locs, p.want) {
					err = fmt.Errorf("reported locations %v, want %v", run.locs, p.want)
				}
				if err != nil {
					opErr = err
					continue
				}
				if which == 0 {
					ls.base[j] = append(ls.base[j], ms(run.wall))
				} else {
					ls.checked[j] = append(ls.checked[j], ms(run.wall))
					roundMs += ms(run.wall)
				}
			}
			rt.end(root)
			ls.ops++
			if opErr != nil {
				fmt.Fprintf(os.Stderr, "avdbench: %s: %v\n", p.name, opErr)
				ls.failed++
				roundFailed = true
			}
		}
		ls.rssMB = append(ls.rssMB, vmHWM())
		restartHWM()
		if roundFailed {
			continue
		}
		ls.rounds = append(ls.rounds, roundMs)
		ls.traced = append(ls.traced, rt != nil)
	}
	return ls
}

// rounds stops liveRounds after n rounds.
func rounds(n int) func(int) bool { return func(r int) bool { return r == n } }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// slowdown is Figure 13's number: the geometric mean over programs of
// median checked wall over median baseline wall.
func (ls *liveSamples) slowdown() float64 {
	xs := make([]float64, len(ls.checked))
	for j := range ls.checked {
		xs[j] = ratio(median(ls.checked[j]), median(ls.base[j]))
	}
	return harness.GeoMean(xs)
}

// relative is every checked rep over its program's median, [prog][rep].
func (ls *liveSamples) relative() [][]float64 {
	rel := make([][]float64, len(ls.checked))
	for j, s := range ls.checked {
		m := median(s)
		for _, t := range s {
			rel[j] = append(rel[j], ratio(t, m))
		}
	}
	return rel
}

// tailWindow is how many consecutive rounds share one tail estimate:
// with four programs, twelve reps in under two seconds. The median of
// the tails of twelve-rep windows sits near the reps' 94th percentile
// (0.5^(1/12)), so it reads what a pooled p95 reads.
const tailWindow = 3

// windowedQuantile is the median, over every window of tailWindow
// consecutive rounds, of the p-quantile of the window's reps. The host
// takes the CPU away in bursts of a second or so. A hundred reps have
// five beyond their pooled p95, one burst fills those five, and that
// p95 then reads the host and not the checker: over eight sets of ten
// runs of one binary the pooled p95/p50 moved 2-28 % between quartiles,
// past 15 % in three sets. A burst spoils only the windows that hold
// it, and the median window is a stretch the benchmark had the machine
// for: 2-6 % on the same reps. A tail the checker itself grows (a slow
// rep in every dozen) is in most windows and still shows.
func windowedQuantile(rel [][]float64, p float64) float64 {
	rounds := len(rel[0])
	for _, r := range rel {
		rounds = min(rounds, len(r))
	}
	var qs []float64
	for lo := 0; lo == 0 || lo+tailWindow <= rounds; lo++ {
		var w []float64
		for _, r := range rel {
			w = append(w, r[lo:min(lo+tailWindow, rounds)]...)
		}
		qs = append(qs, quantile(w, p))
	}
	return median(qs)
}

// medians sums the per-program median walls (ms) of one configuration.
func medians(samples [][]float64) float64 {
	var t float64
	for _, s := range samples {
		t += median(s)
	}
	return t
}

func totalEvents(progs []*prog) (events, accesses int) {
	for _, p := range progs {
		events += p.events
		accesses += p.accesses
	}
	return events, accesses
}

// liveKernels names the kernels of each live workload.
var liveKernels = map[string][]string{
	"live-churn":    {"bodytrack", "swaptions", "delrefine", "fluidanimate"},
	"live-reuse":    {"karatsuba", "sort", "kmeans", "raycast"},
	"live-parallel": {"swaptions", "delrefine", "kmeans", "raycast"},
}

// runLive measures one live-* workload.
func runLive(name string, cfg runConfig) (*outcome, error) {
	workers := 1
	if name == "live-parallel" {
		workers = 2
	}
	out := newOutcome(name, cfg)

	// Set-up: record each kernel once for its event count, then one
	// warm-up rep of every configuration so the heap and the shadow
	// structures are faulted in before the first timed rep.
	var progs []*prog
	var setups []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		start := time.Now()
		in, err := buildInputs(name, cfg)
		if err != nil {
			return nil, err
		}
		progs, out.Inputs = in.progs, in.digest
		warm := liveRounds(progs, workers, cfg.seed, rounds(1), nil)
		if warm.failed > 0 {
			return nil, fmt.Errorf("%s: %d warm-up reps failed", name, warm.failed)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.note("set-up: peak RSS %.1f MB", vmHWM())
	endSetup()

	deadline := time.Now().Add(cfg.window())
	main := liveRounds(progs, workers, cfg.seed,
		func(r int) bool { return r >= cfg.size.minRounds && time.Now().After(deadline) }, cfg.tracer)
	out.Attempted, out.Failed = main.ops, main.failed
	out.Reps["rounds"] = len(main.rounds)
	out.Reps["setups"] = len(setups)
	events, _ := totalEvents(progs)

	if cfg.trace == 0 {
		out.set("setup_s", median(setups))
		out.set("events_per_s", ratio(float64(events), medians(main.checked)/1e3))
		out.set("slowdown_x", main.slowdown())
		// Latency of checking the kernels once. A round's own sum has four
		// chances per sample of meeting a machine hiccup, which puts its p95
		// inside the hiccups; so every checked rep is taken relative to its
		// kernel's median, and the quantiles of those ratios are scaled to
		// the typical round (the kernels' medians summed).
		rel := main.relative()
		var pooled []float64
		for _, r := range rel {
			pooled = append(pooled, r...)
		}
		typical := medians(main.checked)
		out.Reps["latency_samples"] = len(pooled)
		out.Samples = map[string][]float64{}
		for j, p := range progs {
			out.Samples[p.name] = main.checked[j]
		}
		out.set("latency_p50_ms", typical*quantile(pooled, 0.50))
		out.set("latency_p95_ms", typical*windowedQuantile(rel, 0.95))
		// A user runs a kernel once; the rounds repeat that run, and its
		// memory is reported like its time: the median round's peak. The
		// maximum over some 300 reps is set by the one rep in which a
		// collection fell behind, and moved 20 % between runs of the same
		// code where the median moves 3-7 %.
		out.set("peak_rss_mb", median(main.rssMB))
		out.note("round peak RSS MB %s", deciles(main.rssMB))
		out.note("rounds: %d, checked ms per round %s", len(main.rounds), deciles(main.rounds))
		out.note("checked reps relative to their kernel's median: %d samples, %s", len(pooled), deciles(pooled))
		for j, p := range progs {
			out.note("%-22s events=%-8d baseline_ms=%-9.3f checked_ms=%-9.3f slowdown_x=%.2f", p.name, p.events,
				median(main.base[j]), median(main.checked[j]), ratio(median(main.checked[j]), median(main.base[j])))
		}
		return out, nil
	}

	// Traced run: the other worker count, for the parallel penalty.
	other := liveRounds(progs, 3-workers, cfg.seed, rounds(cfg.size.probeReps), nil)
	out.Attempted, out.Failed = out.Attempted+other.ops, out.Failed+other.failed
	one, two := main, other
	if workers == 2 {
		one, two = other, main
	}
	out.setLive(progs, one, two)
	var tracedMs, plainMs []float64
	for r, t := range main.rounds {
		if main.traced[r] {
			tracedMs = append(tracedMs, t)
		} else {
			plainMs = append(plainMs, t)
		}
	}
	out.set("bench.trace_overhead_ratio", ratio(median(tracedMs), median(plainMs)))

	if err := out.setLayers(progs, cfg); err != nil {
		return nil, err
	}

	// The service layers on this workload's kernels, recorded small
	// enough for an upload (the service refuses bodies over 32 MiB).
	small, err := kernelProgs(liveKernels[name], cfg.size.probeScale, cfg.size, true)
	if err != nil {
		return nil, err
	}
	ups, err := encodeUploads(small)
	if err != nil {
		return nil, err
	}
	sv := &serveTotals{}
	for pass := 0; pass < cfg.size.directPasses; pass++ {
		if err := sv.directPass(ups, nil); err != nil {
			return nil, err
		}
	}
	if err := sv.serveRun(ups, serveShape{phases: 1, phaseOps: (1 + cfg.size.probeReps) * len(ups), stamp: true}, cfg.seed, nil, true); err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = out.Attempted+sv.ops, out.Failed+sv.failed
	out.setServer(sv)
	return out, nil
}

// setLive fills the sched and avd layer metrics from samples of the
// same programs at one and at two workers.
func (o *outcome) setLive(progs []*prog, one, two *liveSamples) {
	events, _ := totalEvents(progs)
	baseNs := medians(one.base) * 1e6
	checkedNs := medians(one.checked) * 1e6
	o.set("sched.baseline_ns_per_event", ratio(baseNs, float64(events)))
	o.set("avd.instrumentation_ns_per_event", ratio(checkedNs-baseNs, float64(events)))
	o.set("avd.parallel_penalty_x", ratio(two.slowdown(), one.slowdown()))
	for j, p := range progs {
		o.note("%-22s sched.baseline_ms=%-9.3f avd.checked_ms=%-9.3f avd.slowdown_x=%-6.2f at 2 workers: %.2f", p.name,
			median(one.base[j]), median(one.checked[j]),
			ratio(median(one.checked[j]), median(one.base[j])),
			ratio(median(two.checked[j]), median(two.base[j])))
	}

	// Recording cost: one recording run of each program at one worker
	// against its plain checked median.
	var recNs float64
	for _, p := range progs {
		runtime.GC()
		run, err := p.live(avd.Options{Workers: 1, RecordTrace: true})
		if err != nil {
			o.Failed++
			continue
		}
		recNs += float64(run.wall)
	}
	o.set("trace.record_ns_per_event", ratio(recNs-checkedNs, float64(events)))
}
