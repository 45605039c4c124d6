// Command avd-trace is the paper's trace generator and offline checker:
// it generates random structured task parallel programs, schedules them
// into valid interleavings, replays traces through the detectors, and
// cross-checks the one-trace detection result against the all-schedules
// oracle.
//
// Usage:
//
//	avd-trace -gen [-steps N] [-locations N] [-locks N] [-seed N] [-o file]
//	avd-trace -check [-algorithm optimized|basic|velodrome] [-i file] [-max-trace-bytes N]
//	avd-trace -selfcheck [-trials N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/oracle"
	"github.com/taskpar/avd/internal/sptest"
	"github.com/taskpar/avd/internal/trace"
	"github.com/taskpar/avd/internal/velodrome"
)

func main() {
	gen := flag.Bool("gen", false, "generate a random trace to -o")
	check := flag.Bool("check", false, "replay the trace from -i through a checker")
	selfcheck := flag.Bool("selfcheck", false, "generate programs and compare one-trace detection with the all-schedules oracle")
	steps := flag.Int("steps", 12, "generation: maximum steps")
	locations := flag.Int("locations", 3, "generation: shared locations")
	locks := flag.Int("locks", 1, "generation: number of locks")
	lockProb := flag.Float64("lockprob", 0.3, "generation: probability an access run is locked")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 200, "selfcheck: number of programs")
	algorithm := flag.String("algorithm", "optimized", "check: optimized, basic, or velodrome")
	strict := flag.Bool("strict", false, "enable the strict-lock extension (and compare against the full oracle in -selfcheck)")
	in := flag.String("i", "-", "input trace file (- = stdin)")
	out := flag.String("o", "-", "output trace file (- = stdout)")
	maxBytes := flag.Int64("max-trace-bytes", 256<<20, "refuse input traces larger than this many encoded bytes (0 = unlimited)")
	flag.Parse()

	var err error
	switch {
	case *gen:
		err = runGen(*steps, *locations, *locks, *lockProb, *seed, *out)
	case *check:
		err = runCheck(os.Stdout, *algorithm, *in, *strict, *maxBytes)
	case *selfcheck:
		err = runSelfcheck(*trials, *steps, *locations, *locks, *lockProb, *seed, *strict)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "avd-trace: %v\n", err)
		os.Exit(1)
	}
}

func genConfig(steps, locations, locks int, lockProb float64) sptest.GenConfig {
	return sptest.GenConfig{
		MaxItems: 4, MaxDepth: 3, MaxSteps: steps,
		Locations: locations, MaxAccess: 4,
		Locks: locks, LockProb: lockProb,
	}
}

// generate draws one random program from seed and schedules it into a
// trace, exactly as -gen does.
func generate(cfg sptest.GenConfig, seed int64) (*sptest.Program, *trace.Trace, error) {
	r := rand.New(rand.NewSource(seed))
	p := sptest.Random(r, cfg)
	tr, err := trace.FromProgram(p, r)
	return p, tr, err
}

func runGen(steps, locations, locks int, lockProb float64, seed int64, out string) error {
	p, tr, err := generate(genConfig(steps, locations, locks, lockProb), seed)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(os.Stderr, "generated program:\n%s", p)
	return tr.Encode(w)
}

func runCheck(w io.Writer, algorithm, in string, strict bool, maxBytes int64) error {
	r := io.Reader(os.Stdin)
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	return check(w, r, algorithm, strict, maxBytes)
}

// check decodes one trace from r, replays it through the named checker
// and writes the report to w.
func check(w io.Writer, r io.Reader, algorithm string, strict bool, maxBytes int64) error {
	// The input is untrusted: the size cap rejects oversized files
	// before the decoder allocates for their claimed contents, and
	// truncated files fail with a clean diagnostic instead of a panic.
	tr, err := trace.DecodeLimited(r, maxBytes)
	if err != nil {
		return err
	}
	switch algorithm {
	case "velodrome":
		// Velodrome stays a direct replay: its cycle detail is not part
		// of avd.Report.
		tree := dpst.NewArrayTree()
		v := velodrome.New()
		if err := trace.Replay(tr, tree, v, v); err != nil {
			return err
		}
		for _, c := range v.Cycles() {
			fmt.Fprintln(w, c)
		}
		fmt.Fprintf(w, "%d cycles in %d events (%d tasks, %d DPST nodes)\n",
			v.Count(), len(tr.Events), tr.Tasks, tree.Len())
	case "optimized", "basic":
		opts := avd.Options{StrictLockChecks: strict}
		if algorithm == "basic" {
			opts.Checker = avd.CheckerBasic
		}
		rep, err := avd.ReplayTrace(tr, opts)
		if err != nil {
			return err
		}
		for _, v := range rep.Violations {
			fmt.Fprintln(w, v)
		}
		fmt.Fprintf(w, "%d violations in %d events (%d tasks, %d DPST nodes, %d LCA queries)\n",
			rep.ViolationCount, len(tr.Events), tr.Tasks, rep.Stats.DPSTNodes, rep.Stats.LCAQueries)
	default:
		return fmt.Errorf("unknown algorithm %q", algorithm)
	}
	return nil
}

func runSelfcheck(trials, steps, locations, locks int, lockProb float64, seed int64, strict bool) error {
	r := rand.New(rand.NewSource(seed))
	mismatches := 0
	detected := 0
	mode := oracle.ModePaper
	if strict {
		mode = oracle.ModeFull
	}
	for i := 0; i < trials; i++ {
		p := sptest.Random(r, genConfig(steps, locations, locks, lockProb))
		b := sptest.Build(dpst.ArrayLayout, p)
		want := oracle.Violations(b, mode)
		tr, err := trace.FromProgram(p, r)
		if err != nil {
			return err
		}
		rep, err := avd.ReplayTrace(tr, avd.Options{StrictLockChecks: strict})
		if err != nil {
			return err
		}
		got := map[int]bool{}
		for _, v := range rep.Violations {
			got[int(v.Loc-trace.LocBase)] = true
		}
		same := len(got) == len(want)
		for l := range got {
			if !want[l] {
				same = false
			}
		}
		if !same {
			mismatches++
			fmt.Printf("MISMATCH (trial %d): checker=%v oracle=%v\nprogram:\n%s\n", i, got, want, p)
		}
		if len(want) > 0 {
			detected++
		}
	}
	fmt.Printf("selfcheck: %d trials, %d with feasible violations, %d mismatches vs oracle\n",
		trials, detected, mismatches)
	if mismatches > 0 {
		return fmt.Errorf("%d mismatches", mismatches)
	}
	return nil
}
