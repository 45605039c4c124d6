// Command avdbench is the repository's benchmark: five workloads over
// the two pipelines a user of avd sees — an instrumented kernel checked
// live, and trace bytes checked by the service — each verified against
// a known answer, with six end-to-end metrics (untraced run) and the
// per-layer attribution (traced run). BENCHMARK.json at the repository
// root names the command, the workloads and the metrics; README.md in
// the parent directory explains them.
//
//	go run ./benchmarks/avdbench -workload live-churn -seed 1 -seconds 15 -trace 0
//	go run ./benchmarks/avdbench -smoke
//	go run ./benchmarks/avdbench -suite 10 -json A.json
//	go run ./benchmarks/avdbench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

var nan = math.NaN()

// outDir receives result files and span dumps; .gitignore names it.
const outDir = "benchmarks/out"

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   int
	size    sizing
	tracer  *tracer // non-nil in the traced run
}

// window is how long the workload itself is measured. The traced run
// alternates traced and untraced rounds or phases for a third of its
// time and gives the rest to the per-layer probes.
func (c runConfig) window() time.Duration {
	if c.trace == 1 {
		return c.seconds / 3
	}
	return c.seconds
}

// setupReps is how often set-up is repeated; setup_s is the median.
// The traced run does not report it and sets up once.
func (c runConfig) setupReps() int {
	if c.trace == 1 {
		return 1
	}
	return c.size.setupReps
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run produced. Its last four fields are the
// one-line result the driver reads; the whole of it is the result file.
type outcome struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Env       envInfo              `json:"env"`
	Inputs    string               `json:"inputs_sha256"`
	Reps      map[string]int       `json:"reps"`
	Notes     []string             `json:"notes,omitempty"`
	SelfTimes []selfTime           `json:"self_times,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // live-*: every checked rep's wall (ms) per kernel, in order
	spans     *tracer              // the traced run's spans, written beside the result file

	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newOutcome(workload string, cfg runConfig) *outcome {
	return &outcome{
		Workload: workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds.Seconds(),
		Reps: make(map[string]int), Metrics: make(map[string]value),
	}
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric under its declared unit.
func (o *outcome) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("avdbench: undeclared metric " + name)
	}
	o.Metrics[name] = value{Value: v, Unit: unit}
}

// note keeps a human-readable line (per-kernel rows, sample counts) for
// standard output and the result file.
func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload and checks that it reported exactly the
// metrics of its mode, all finite.
func runWorkload(name string, cfg runConfig) (*outcome, error) {
	run := runServe
	switch {
	case liveKernels[name] != nil:
		run = runLive
	case name != "serve-fresh" && name != "serve-small":
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	env := readEnv()
	// Every traced run has two-worker rounds and a two-client service.
	if (cfg.trace == 1 || (name != "live-churn" && name != "live-reuse")) && env.GOMAXPROCS < 2 {
		return nil, fmt.Errorf("%s (trace %d) needs GOMAXPROCS >= 2 (have %d): two workers or clients on one core would report time-slicing, not the system", name, cfg.trace, env.GOMAXPROCS)
	}
	if cfg.trace == 1 {
		cfg.tracer = newTracer()
	}
	out, err := run(name, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.Env = env
	want := endToEnd
	if cfg.trace == 1 {
		want = perLayer
		out.spans = cfg.tracer
		out.SelfTimes = cfg.tracer.selfTimes()
	}
	if len(out.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: reported %d metrics, want %d", name, len(out.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := out.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite (%v)", name, d.Name, v.Value)
		}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no op attempted", name)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// emit prints the run for a reader and, as the last line, the one JSON
// object the driver parses; the full outcome and the spans go to files.
func emit(out *outcome) error {
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	for _, st := range out.SelfTimes {
		fmt.Printf("span %-18s count=%-7d total_ms=%-12.3f self_ms=%.3f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	defs := endToEnd
	if out.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.4f %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("ops=%d failed_ops=%d\n", out.Attempted, out.Failed)

	base := fmt.Sprintf("%s-seed%d-trace%d", out.Workload, out.Seed, out.Trace)
	if err := out.spans.write(outDir, base+".spans.json"); err != nil {
		return err
	}
	full, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".json"), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, out.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smokeRun := flag.Bool("smoke", false, "run every workload, both modes, at toy size")
	suite := flag.Int("suite", 0, "run every workload this many times (seeds seed..seed+n-1), one process each, into -json")
	jsonPath := flag.String("json", "", "result-set file -suite writes")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	flag.Parse()

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result-set files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *smokeRun:
			return runSmoke(*seed)
		case *suite > 0:
			return runSuite(*suite, *seed, *seconds, *jsonPath)
		}
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace must be 0 or 1")
		}
		cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace, size: full}
		out, err := runWorkload(*workload, cfg)
		if err != nil {
			return err
		}
		if err := emit(out); err != nil {
			return err
		}
		if !out.Correct {
			return fmt.Errorf("%d of %d ops failed", out.Failed, out.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "avdbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runSmoke runs every workload in both modes at toy size, in-process.
func runSmoke(seed int64) error {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cfg := runConfig{seed: seed, seconds: 100 * time.Millisecond, trace: trace, size: smoke}
			start := time.Now()
			out, err := runWorkload(w.Name, cfg)
			if err != nil {
				return err
			}
			if !out.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.Name, out.Failed, out.Attempted)
			}
			fmt.Printf("%-14s trace=%d ops=%-5d metrics=%-3d %.2fs\n", w.Name, trace, out.Attempted, len(out.Metrics), time.Since(start).Seconds())
		}
	}
	return nil
}
