// Command avd-bench regenerates the performance figures of the paper:
// Figure 13 (checker slowdown vs the reimplemented Velodrome, both
// relative to an uninstrumented baseline) and Figure 14 (array-based vs
// linked DPST layouts).
//
// Usage:
//
//	avd-bench [-figure 13|14|all] [-kernels k1,k2] [-workers N] [-scale F]
//	          [-reps N] [-json PATH] [-cpuprofile PATH] [-memprofile PATH]
//	          [-require-window-elisions] [-require-batch-le-default k1,k2]
//
// As in the paper, each benchmark is executed repeatedly and the average
// is reported; absolute times depend on this machine, but the shape —
// who wins and by roughly what factor — should match the paper. With
// -json the selected figure's raw measurements (wall times, slowdowns,
// geomeans, batch dedup and elision counters) are additionally written to PATH
// as indented JSON; when -figure all, the JSON carries Figure 13.
//
// -kernels restricts the sweep to the named kernels, so a CI gate can
// afford more scale and reps on the kernels it cares about than a full
// figure run would.
//
// -cpuprofile and -memprofile write pprof profiles of the measurement
// run. -require-window-elisions exits nonzero when the measured figure
// has no avd-batch configuration, or when that configuration reports
// zero batch flushes, batched accesses, front-end saves (dedup hits
// plus window elisions; the handle-layer front end answers most
// saturated repeats before the dedup table sees them, so the two
// counters are one engagement signal) or window elisions — the CI
// guard against the coalescer or its handle-layer front end silently
// wedging open. -require-batch-le-default takes a comma-separated list
// of kernel[:slack] entries and exits nonzero when avd-batch's slowdown
// exceeds the default configuration's (avd-labels, times the optional
// slack factor) on any of them — the regression gate for the kernels
// batching exists to win on. The slack form exists for kernels whose
// batched path carries a known, bounded structural cost (see DESIGN.md
// §4.3 on why short repeat runs cannot be elided): "sort:1.3" fails
// only when sort's batched slowdown exceeds 1.3x its default slowdown.
//
// -debug-addr serves expvar on the given address while the benchmarks
// run: GET /debug/vars carries an "avd" variable with a live Snapshot
// of the session currently being measured (violation counts, Table 1
// stats, memory-budget usage, chaos counters), or null between runs.
// Scheduler worker goroutines carry pprof labels (avd_worker), so CPU
// profiles taken from the endpoint attribute samples per worker.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"github.com/taskpar/avd/internal/harness"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 13, 14, or all")
	kernelsFlag := flag.String("kernels", "", "comma-separated kernel subset to measure (default: all)")
	ablation := flag.String("ablation", "", "extra ablation to run instead of the figures: metadata")
	seed := flag.Int64("seed", 1, "seed for ablation workloads")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	scale := flag.Float64("scale", 1, "problem-size multiplier")
	reps := flag.Int("reps", 3, "repetitions per measurement (the paper uses 5)")
	jsonPath := flag.String("json", "", "also write the figure's measurements to this file as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	requireElisions := flag.Bool("require-window-elisions", false, "fail when the avd-batch configuration reports no batching activity or zero window elisions")
	batchLEDefault := flag.String("require-batch-le-default", "", "comma-separated kernels on which avd-batch's slowdown must not exceed avd-labels'")
	debugAddr := flag.String("debug-addr", "", "serve expvar (incl. a live session snapshot) on this address, e.g. localhost:6060")
	flag.Parse()

	if *debugAddr != "" {
		expvar.Publish("avd", expvar.Func(func() any {
			s := harness.LiveSession()
			if s == nil {
				return nil
			}
			return s.Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("avd-bench: debug endpoint: %v", err)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if *ablation != "" {
		switch *ablation {
		case "metadata":
			if err := harness.MetadataAblation(os.Stdout, *seed); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatalf("unknown -ablation %q (want metadata)", *ablation)
		}
		writeMemProfile(*memProfile)
		return
	}

	var kernels []string
	for _, name := range strings.Split(*kernelsFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			kernels = append(kernels, name)
		}
	}

	// render measures one figure, prints it, and remembers its data for
	// the optional JSON dump and the coalescer guards.
	var jsonData *harness.FigureData
	render := func(title string, data func(int, float64, int, ...string) (*harness.FigureData, error), keep bool) {
		d, err := data(*workers, *scale, *reps, kernels...)
		if err != nil {
			log.Fatal(err)
		}
		harness.RenderFigure(os.Stdout, title, d)
		if keep {
			jsonData = d
		}
	}

	switch *figure {
	case "13":
		render(harness.Figure13Title, harness.Figure13Data, true)
	case "14":
		render(harness.Figure14Title, harness.Figure14Data, true)
	case "all":
		render(harness.Figure13Title, harness.Figure13Data, true)
		fmt.Println()
		render(harness.Figure14Title, harness.Figure14Data, false)
	default:
		log.Fatalf("unknown -figure %q (want 13, 14, or all)", *figure)
	}

	if *jsonPath != "" && jsonData != nil {
		if err := jsonData.WriteJSON(*jsonPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}

	if *requireElisions {
		var elisions, batchSaves, batchFlushes, batchedAccesses int64
		for _, r := range jsonData.Results {
			if r.Config == "avd-batch" {
				elisions += r.WindowElisions
				batchSaves += r.FilterHits + r.WindowElisions
				batchFlushes += r.BatchFlushes
				batchedAccesses += r.BatchedAccesses
			}
		}
		fmt.Printf("\navd-batch: %d front-end saves (dedup hits + elisions), %d flushes, %d batched accesses, %d window elisions\n",
			batchSaves, batchFlushes, batchedAccesses, elisions)
		if !figureHasConfig(jsonData, "avd-batch") {
			log.Fatal("avd-bench: -require-window-elisions: the measured figure has no avd-batch configuration")
		}
		if batchFlushes == 0 || batchedAccesses == 0 {
			log.Fatal("avd-bench: -require-window-elisions: the avd-batch configuration never flushed a batch")
		}
		if batchSaves == 0 {
			log.Fatal("avd-bench: -require-window-elisions: the avd-batch front end reported neither dedup hits nor window elisions")
		}
		if elisions == 0 {
			log.Fatal("avd-bench: -require-window-elisions: the avd-batch configuration reported zero window elisions")
		}
	}

	if *batchLEDefault != "" {
		slowdown := make(map[string]map[string]float64) // kernel -> config -> slowdown
		for _, r := range jsonData.Results {
			if slowdown[r.Kernel] == nil {
				slowdown[r.Kernel] = make(map[string]float64)
			}
			slowdown[r.Kernel][r.Config] = r.Slowdown
		}
		for _, spec := range strings.Split(*batchLEDefault, ",") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			// kernel[:slack] — slack is a multiplier on the default
			// slowdown, for kernels whose batched path has a known,
			// bounded structural cost (default 1 = strict at-or-below).
			kernel, slack := spec, 1.0
			if k, s, ok := strings.Cut(spec, ":"); ok {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil || v < 1 {
					log.Fatalf("avd-bench: -require-batch-le-default: bad slack in %q (want kernel:factor with factor >= 1)", spec)
				}
				kernel, slack = k, v
			}
			cfgs, ok := slowdown[kernel]
			if !ok {
				log.Fatalf("avd-bench: -require-batch-le-default: kernel %q was not measured", kernel)
			}
			batch, okB := cfgs["avd-batch"]
			def, okD := cfgs["avd-labels"]
			if !okB || !okD {
				log.Fatalf("avd-bench: -require-batch-le-default: kernel %q is missing the avd-batch or avd-labels configuration", kernel)
			}
			fmt.Printf("%s: avd-batch %.2fx vs avd-labels %.2fx (slack %.2f)\n", kernel, batch, def, slack)
			if batch > def*slack {
				log.Fatalf("avd-bench: -require-batch-le-default: %s regressed: avd-batch %.2fx > avd-labels %.2fx x %.2f",
					kernel, batch, def, slack)
			}
		}
	}

	writeMemProfile(*memProfile)
}

// figureHasConfig reports whether the measured figure included the
// named configuration (Figure 14 has no avd-batch column).
func figureHasConfig(d *harness.FigureData, name string) bool {
	for _, c := range d.Configs {
		if c == name {
			return true
		}
	}
	return false
}

// writeMemProfile dumps a heap profile after a final GC so the profile
// reflects retained metadata rather than transient garbage.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
}
