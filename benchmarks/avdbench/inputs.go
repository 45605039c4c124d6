package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/bench"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/harness"
	"github.com/taskpar/avd/internal/oracle"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
)

// sizing fixes how much work a run does. full is what BENCHMARK.json
// measures; smoke is the toy size of -smoke and the package test.
type sizing struct {
	liveScale    float64 // harness.Sizes scale of the live-* kernels
	probeScale   float64 // scale of the live-* kernels' service probe (uploads must fit 32 MiB)
	freshScale   float64 // scale of serve-fresh's recorded kernels
	freshRate    float64 // serve-fresh submissions per second of -seconds (480 at 15 s)
	smallProgs   int     // distinct serve-small traces
	setupReps    int     // set-ups per run; setup_s is their median
	minRounds    int     // live rounds measured even if the window has passed
	probeReps    int     // repetitions of each per-layer probe
	directPasses int     // live-*: direct passes over every upload of the service probe
	servePhases  int     // serve-*: closed-loop phases, and as many direct passes over every upload
	// override replaces harness.Sizes for the named kernels: its floor of
	// 8 is a quarter of swaptions' full size (14 k events apiece) and 64
	// rays against raycast's full scene — no toys; kmeans is simply the
	// slowest of the rest.
	override map[string]int
}

var (
	full  = sizing{liveScale: 0.5, probeScale: 0.1, freshScale: 0.25, freshRate: 32, smallProgs: 512, setupReps: 3, minRounds: 5, probeReps: 3, directPasses: 5, servePhases: 10}
	smoke = sizing{liveScale: 0.005, probeScale: 0.005, freshScale: 0.01, freshRate: 100, smallProgs: 32, setupReps: 2, minRounds: 2, probeReps: 1, directPasses: 1, servePhases: 2,
		override: map[string]int{"swaptions": 1, "raycast": 3, "kmeans": 50}}
)

// prog is one input program: something the checker can run live and
// whose trace the service can check, with the answer both must give.
type prog struct {
	name string
	// live runs the program once on a fresh session configured by opts
	// and checks the program's own output (a kernel's checksum).
	live func(opts avd.Options) (liveRun, error)
	// want is the set of violating program locations: empty for the
	// kernels (violation-free by construction), oracle.Violations for
	// generated programs — never the checker under test.
	want map[int]bool
	// locOf maps a trace location back to a program location.
	locOf func(avd.Loc) int

	trace    *avd.Trace
	events   int
	accesses int
}

// liveRun is the outcome of one live execution.
type liveRun struct {
	wall  time.Duration // the program's run, without session set-up and report
	locs  map[int]bool  // violating program locations
	trace *avd.Trace    // recorded trace, when opts.RecordTrace
}

// sameLocs reports whether got is exactly the expected violating set.
func sameLocs(got, want map[int]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for l := range got {
		if !want[l] {
			return false
		}
	}
	return true
}

// kernelProg wraps benchmark kernel name at the given Sizes scale.
func kernelProg(name string, scale float64, size sizing) (*prog, error) {
	k, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	n := harness.Sizes(scale)[name]
	if o, ok := size.override[name]; ok {
		n = o
	}
	return &prog{
		name:  fmt.Sprintf("%s/%d", name, n),
		locOf: func(l avd.Loc) int { return int(l) },
		live: func(opts avd.Options) (liveRun, error) {
			s := avd.NewSession(opts)
			defer s.Close()
			start := time.Now()
			sum := k.Run(s, n)
			wall := time.Since(start)
			if err := k.Check(n, sum); err != nil {
				return liveRun{}, fmt.Errorf("%s: %w", name, err)
			}
			locs := make(map[int]bool)
			for _, v := range s.Report().Violations {
				locs[int(v.Loc)] = true
			}
			return liveRun{wall: wall, locs: locs, trace: s.RecordedTrace()}, nil
		},
	}, nil
}

// kernelProgs builds and records the named kernels. Recording runs at
// one worker so the event order, and with it every byte of the encoded
// trace, depends only on the kernel and its size. Without keep only the
// counts are kept: a live workload's untraced run never reads the trace,
// and peak_rss_mb is the whole process's, so a held trace — an order of
// magnitude more than the checker's state — would be all it measured.
func kernelProgs(names []string, scale float64, size sizing, keep bool) ([]*prog, error) {
	progs := make([]*prog, 0, len(names))
	for _, name := range names {
		p, err := kernelProg(name, scale, size)
		if err != nil {
			return nil, err
		}
		runtime.GC() // the previous kernel's trace
		run, err := p.live(avd.Options{Workers: 1, RecordTrace: true})
		if err != nil {
			return nil, err
		}
		if run.trace == nil {
			return nil, fmt.Errorf("%s: no trace recorded", name)
		}
		// The recorder stamps wall-clock times, which replay ignores.
		// Replace them with a synthetic 1 µs/event clock of the same
		// width so the same seed yields byte-identical uploads.
		for i := range run.trace.Events {
			run.trace.Events[i].Ts = int64(i+1) * 1000
		}
		p.setTrace(run.trace)
		if !keep {
			p.trace = nil
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func (p *prog) setTrace(tr *avd.Trace) {
	p.trace = tr
	p.events = len(tr.Events)
	p.accesses = 0
	for _, e := range tr.Events {
		if e.Kind == trace.KAccess {
			p.accesses++
		}
	}
}

// smallGen bounds serve-small's generated programs: at most 64 steps
// over 8 locations and 2 locks, mostly locked reads, so that about half
// of them have a feasible violation and half have none.
var smallGen = sptest.GenConfig{
	MaxItems: 5, MaxDepth: 5, MaxSteps: 64, Locations: 8,
	MaxAccess: 3, Locks: 2, LockProb: 0.8, WriteProb: 0.08,
}

// populationSeed fixes which programs serve-small submits. The run's
// seed picks the schedule each program's trace records and the order
// of submission, so every seed gives different bytes, but the mean
// program size — which alone moved events_per_s by 8 % between seeds
// when the population followed the seed — stays put.
const populationSeed = 2016

// randomProgs generates the first n programs of the population, one
// random valid schedule of each (drawn from seed) as its trace, and the
// all-schedules oracle's answer.
func randomProgs(seed int64, n int) ([]*prog, error) {
	population := rand.New(rand.NewSource(populationSeed))
	schedules := rand.New(rand.NewSource(seed))
	progs := make([]*prog, 0, n)
	for i := 0; i < n; i++ {
		sp := sptest.Random(population, smallGen)
		tr, err := trace.FromProgram(sp, schedules)
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", i, err)
		}
		p := &prog{
			name:  fmt.Sprintf("random/%d", i),
			want:  oracle.Violations(sptest.BuildOn(dpst.NewArrayTree(), sp), oracle.ModePaper),
			locOf: func(l avd.Loc) int { return int(l - trace.LocBase) },
			live:  func(opts avd.Options) (liveRun, error) { return execProgram(sp, opts), nil },
		}
		p.setTrace(tr)
		progs = append(progs, p)
	}
	return progs, nil
}

// execProgram runs a generated program on the real scheduler through
// the public handle API, as the repository's runtime-oracle test does.
func execProgram(sp *sptest.Program, opts avd.Options) liveRun {
	s := avd.NewSession(opts)
	defer s.Close()
	vars := make([]*avd.IntVar, smallGen.Locations)
	locOf := make(map[avd.Loc]int, len(vars))
	for i := range vars {
		vars[i] = s.NewIntVar(fmt.Sprintf("x%d", i))
		locOf[vars[i].Loc()] = i
	}
	locks := make([]*avd.Mutex, smallGen.Locks)
	for i := range locks {
		locks[i] = s.NewMutex(fmt.Sprintf("L%d", i))
	}
	var exec func(t *avd.Task, items []sptest.Item)
	exec = func(t *avd.Task, items []sptest.Item) {
		for _, it := range items {
			switch v := it.(type) {
			case *sptest.StepItem:
				cs := -1
				var held *avd.Mutex
				for _, a := range v.Accesses {
					if a.CS != cs {
						if held != nil {
							held.Unlock(t) //avdlint:ignore lock state follows the generated program
							held = nil
						}
						if a.CS >= 0 {
							held = locks[a.Lock]
							held.Lock(t)
						}
						cs = a.CS
					}
					if a.Write {
						vars[a.Loc].Store(t, int64(a.Loc))
					} else {
						vars[a.Loc].Load(t)
					}
				}
				if held != nil {
					held.Unlock(t)
				}
			case *sptest.SpawnItem:
				body := v.Body
				t.Spawn(func(ct *avd.Task) { exec(ct, body) })
			case *sptest.FinishItem:
				body := v.Body
				t.Finish(func(ft *avd.Task) { exec(ft, body) })
			}
		}
	}
	start := time.Now()
	s.Run(func(t *avd.Task) { exec(t, sp.Body) })
	wall := time.Since(start)
	locs := make(map[int]bool)
	for _, v := range s.Report().Violations {
		locs[locOf[v.Loc]] = true
	}
	return liveRun{wall: wall, locs: locs, trace: s.RecordedTrace()}
}

// stampBase is the first event's ts in every upload: 16 digits, so a
// client can overwrite it in place with stampBase+op and make each body
// byte-distinct without changing its length or what replay sees.
const stampBase = int64(1_000_000_000_000_000)

// encodeBody encodes p's trace for upload and returns the offset of the
// first event's 16-digit ts.
func encodeBody(p *prog) (body []byte, stampAt int, err error) {
	if len(p.trace.Events) == 0 {
		return nil, 0, fmt.Errorf("%s: empty trace", p.name)
	}
	saved := p.trace.Events[0].Ts
	p.trace.Events[0].Ts = stampBase
	defer func() { p.trace.Events[0].Ts = saved }()
	var buf bytes.Buffer
	if err := p.trace.Encode(&buf); err != nil {
		return nil, 0, fmt.Errorf("%s: encode: %w", p.name, err)
	}
	body = buf.Bytes()
	stampAt = bytes.Index(body, []byte(fmt.Sprintf(`"ts":%d`, stampBase)))
	if stampAt < 0 {
		return nil, 0, fmt.Errorf("%s: encoded trace has no ts to stamp", p.name)
	}
	return body, stampAt + len(`"ts":`), nil
}

// freshKernels are the kernels whose recorded traces serve-fresh
// uploads: five sizes from 5 k to 43 k events.
var freshKernels = []string{"bodytrack", "nearestneigh", "convexhull", "karatsuba", "streamcluster"}

// inputs is everything a run derives from its seed.
type inputs struct {
	progs []*prog
	ups   []*upload // serve-* only
	// digest is a SHA-256 over the program names, the upload bytes and
	// the seeded order (kernel rotation, or the first 256 submission
	// draws), so the test can assert that one seed gives byte-identical
	// inputs.
	digest string
}

func buildInputs(name string, cfg runConfig) (*inputs, error) {
	in := &inputs{}
	var err error
	switch name {
	case "serve-fresh":
		in.progs, err = kernelProgs(freshKernels, cfg.size.freshScale, cfg.size, true)
	case "serve-small":
		in.progs, err = randomProgs(cfg.seed, cfg.size.smallProgs)
	default:
		in.progs, err = kernelProgs(liveKernels[name], cfg.size.liveScale, cfg.size, cfg.trace == 1)
	}
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, p := range in.progs {
		fmt.Fprintf(h, "%s\x00", p.name)
	}
	if liveKernels[name] != nil {
		fmt.Fprintf(h, "rotate %d", cfg.seed&0xffff)
	} else {
		if in.ups, err = encodeUploads(in.progs); err != nil {
			return nil, err
		}
		for _, u := range in.ups {
			fmt.Fprintf(h, "%d\x00", len(u.body))
			h.Write(u.body)
		}
		draws := rand.New(rand.NewSource(cfg.seed))
		for i := 0; i < 256; i++ {
			fmt.Fprintf(h, "%d,", draws.Intn(len(in.ups)))
		}
	}
	in.digest = fmt.Sprintf("%x", h.Sum(nil))
	return in, nil
}

// batchProg runs progs back to back as one program, each on its own
// session and each verified against its own answer, so that programs
// too small to time singly can be measured like a kernel.
func batchProg(progs []*prog) *prog {
	b := &prog{name: fmt.Sprintf("batch/%d", len(progs))}
	b.events, b.accesses = totalEvents(progs)
	b.live = func(opts avd.Options) (liveRun, error) {
		var total liveRun
		for _, p := range progs {
			run, err := p.live(opts)
			if err != nil {
				return total, err
			}
			if opts.Checker != avd.CheckerNone && !sameLocs(run.locs, p.want) {
				return total, fmt.Errorf("%s: reported locations %v, want %v", p.name, run.locs, p.want)
			}
			total.wall += run.wall
		}
		return total, nil
	}
	return b
}
