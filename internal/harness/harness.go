// Package harness runs the paper's evaluation: it measures each
// benchmark kernel under the uninstrumented baseline, the DPST checker
// (array and linked layouts), and the Velodrome baseline, and renders
// Table 1, Figure 13, and Figure 14 as text.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/bench"
)

// Config names one measured configuration.
type Config struct {
	Name string
	Opts avd.Options
}

// Baseline is the uninstrumented configuration all slowdowns are
// relative to.
func Baseline(workers int) Config {
	return Config{Name: "baseline", Opts: avd.Options{Workers: workers, Checker: avd.CheckerNone}}
}

// Prototype is our checker in its default configuration: the array DPST
// with label-based MHP queries.
func Prototype(workers int) Config {
	return Config{Name: "our-prototype", Opts: avd.Options{Workers: workers}}
}

// PrototypeBatch is the step-granular batching configuration: the
// label-MHP checker behind the per-task access coalescer, which buffers
// each step's accesses and dispatches them in one pass per batch — step
// node and lockset read once per flush instead of once per access.
func PrototypeBatch(workers int) Config {
	return Config{Name: "avd-batch", Opts: avd.Options{Workers: workers, MHP: avd.MHPLabels, Batch: true}}
}

// PrototypeLabels is the default configuration (label MHP, per-access
// dispatch) under its Figure 13 column name.
func PrototypeLabels(workers int) Config {
	return Config{Name: "avd-labels", Opts: avd.Options{Workers: workers}}
}

// PrototypeCachedLCA is the paper's Section 4 configuration — the LCA
// tree walk with the sharded memoization cache — kept as the avd-array
// comparison column and as the source of Table 1's unique-LCA counts.
func PrototypeCachedLCA(workers int) Config {
	return Config{Name: "avd-array", Opts: avd.Options{Workers: workers, MHP: avd.MHPCachedWalk}}
}

// PrototypeLinked is the Figure 14 linked-layout configuration. The walk
// mode is forced because label queries never touch node memory, which
// would make the layout comparison vacuous.
func PrototypeLinked(workers int) Config {
	return Config{Name: "linked-DPST", Opts: avd.Options{Workers: workers, Layout: avd.LayoutLinked, MHP: avd.MHPCachedWalk}}
}

// PrototypeNoCache variants use the uncached walk so every Par query
// walks the tree, isolating the DPST layout cost that Figure 14
// measures.
func PrototypeNoCache(workers int) Config {
	return Config{Name: "array-nocache", Opts: avd.Options{Workers: workers, MHP: avd.MHPWalk}}
}

// PrototypeLinkedNoCache is the uncached linked-layout configuration.
func PrototypeLinkedNoCache(workers int) Config {
	return Config{Name: "linked-nocache", Opts: avd.Options{Workers: workers, Layout: avd.LayoutLinked, MHP: avd.MHPWalk}}
}

// Velodrome is the comparison checker of Figure 13.
func Velodrome(workers int) Config {
	return Config{Name: "velodrome", Opts: avd.Options{Workers: workers, Checker: avd.CheckerVelodrome}}
}

// Bounded is the prototype under a metadata memory budget — the
// graceful-degradation configuration. A saturated run is visible in
// Measurement.Report (Saturated, Drops, MemoryUsed).
func Bounded(workers int, budgetBytes int64) Config {
	return Config{
		Name: fmt.Sprintf("bounded-%s", human(budgetBytes)),
		Opts: avd.Options{Workers: workers, MemoryBudget: budgetBytes},
	}
}

// Chaotic is the prototype under deterministic schedule perturbation
// (forced steals and bounded delays), used to measure how robust the
// checker's cost and results are to adversarial schedules.
func Chaotic(workers int, seed int64) Config {
	return Config{
		Name: "chaos",
		Opts: avd.Options{
			Workers: workers,
			Chaos:   &avd.ChaosConfig{Seed: seed, StealProb: 0.2, DelayProb: 0.1},
		},
	}
}

// Measurement is one (kernel, configuration) timing result.
type Measurement struct {
	Kernel  string
	Config  string
	N       int
	Reps    int
	Seconds float64 // median wall time per repetition
	Report  avd.Report
}

// Measure runs kernel k under cfg reps times (fresh session each time,
// as each run owns its DPST and metadata), validates the checksum, and
// returns the median wall time and the final run's report. The paper
// averages five runs; the median is more robust against scheduler noise
// at our smaller problem sizes.
func Measure(k bench.Kernel, cfg Config, n, reps int) (Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]float64, 0, reps)
	var rep avd.Report
	for i := 0; i <= reps; i++ {
		runtime.GC() // don't charge this run with the previous config's garbage
		s := avd.NewSession(cfg.Opts)
		setLive(s)
		start := time.Now()
		sum := k.Run(s, n)
		elapsed := time.Since(start).Seconds()
		rep = s.Report()
		setLive(nil)
		s.Close()
		if err := k.Check(n, sum); err != nil {
			return Measurement{}, fmt.Errorf("%s under %s: %w", k.Name, cfg.Name, err)
		}
		if i > 0 {
			// Run 0 is an untimed warm-up: it grows the heap and faults in
			// the shadow structures, so the first measured configuration is
			// not charged for the process's cold start.
			times = append(times, elapsed)
		}
	}
	sort.Float64s(times)
	return Measurement{
		Kernel:  k.Name,
		Config:  cfg.Name,
		N:       n,
		Reps:    reps,
		Seconds: times[len(times)/2],
		Report:  rep,
	}, nil
}

// GeoMean returns the geometric mean of xs (1 when empty).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// human renders counts in the paper's style: 1,352 / 9.87M / 40M.
func human(v int64) string {
	switch {
	case v >= 100_000_000:
		return fmt.Sprintf("%dM", (v+500_000)/1_000_000)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1_000_000)
	default:
		return group(v)
	}
}

// group inserts thousands separators.
func group(v int64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}

// Sizes resolves the per-kernel problem sizes, scaled by scale.
func Sizes(scale float64) map[string]int {
	out := make(map[string]int)
	for _, k := range bench.All() {
		n := int(float64(k.DefaultN) * scale)
		if n < 8 {
			n = 8
		}
		// Dimension-style sizes scale with the square root so the total
		// work scales roughly linearly.
		switch k.Name {
		case "fluidanimate", "raycast":
			n = int(float64(k.DefaultN) * math.Sqrt(scale))
			if n < 8 {
				n = 8
			}
		}
		out[k.Name] = n
	}
	return out
}

// ViolationRecord is the machine-readable form of one detected
// violation, provenance included (see avd.Provenance).
type ViolationRecord struct {
	Loc             uint64 `json:"loc"`
	Pattern         string `json:"pattern"`
	PatternStep     int32  `json:"pattern_step"`
	InterleaverStep int32  `json:"interleaver_step"`
	PatternTask     int32  `json:"pattern_task"`
	InterleaverTask int32  `json:"interleaver_task"`
	// Provenance fields; empty/zero when the checker captured none.
	PatternPath      string   `json:"pattern_path,omitempty"`
	InterleaverPath  string   `json:"interleaver_path,omitempty"`
	PatternLocks     []uint64 `json:"pattern_locks,omitempty"`
	InterleaverLocks []uint64 `json:"interleaver_locks,omitempty"`
	Observed         bool     `json:"observed"`
	Explanation      string   `json:"explanation"`
}

// violationRecord flattens an avd.Violation and its provenance.
func violationRecord(v avd.Violation) ViolationRecord {
	r := ViolationRecord{
		Loc:             uint64(v.Loc),
		Pattern:         v.PatternName(),
		PatternStep:     int32(v.PatternStep),
		InterleaverStep: int32(v.InterleaverStep),
		PatternTask:     v.PatternTask,
		InterleaverTask: v.InterleaverTask,
		Explanation:     v.Explain(),
	}
	if p := v.Prov; p != nil {
		r.PatternPath = p.PatternPath
		r.InterleaverPath = p.InterleaverPath
		r.PatternLocks = p.PatternLocks
		r.InterleaverLocks = p.InterleaverLocks
		r.Observed = p.Observed
	}
	return r
}

// Table1Row is one benchmark's Table 1 measurements, plus the detected
// violations with provenance (capped at maxTable1Violations records;
// ViolationCount is the uncapped total).
type Table1Row struct {
	Kernel         string  `json:"kernel"`
	N              int     `json:"n"`
	Locations      int64   `json:"locations"`
	DPSTNodes      int     `json:"dpst_nodes"`
	LCAQueries     int64   `json:"lca_queries"`
	UniquePercent  float64 `json:"unique_percent"`
	ViolationCount int64   `json:"violation_count"`
	// BatchFlushes/BatchedAccesses describe the access coalescer when
	// the measurement ran batched (zero and omitted otherwise), and
	// WindowElisions counts the accesses its handle-layer front end
	// answered without dispatching.
	BatchFlushes    int64             `json:"batch_flushes,omitempty"`
	BatchedAccesses int64             `json:"batched_accesses,omitempty"`
	WindowElisions  int64             `json:"window_elisions,omitempty"`
	Violations      []ViolationRecord `json:"violations,omitempty"`
}

// maxTable1Violations caps the per-kernel violation records embedded in
// Table1Data; the count field stays exact.
const maxTable1Violations = 20

// Table1Data is the machine-readable form of Table 1 (avd-stats -json).
type Table1Data struct {
	Workers   int         `json:"workers"`
	GoVersion string      `json:"go_version"`
	Scale     float64     `json:"scale"`
	Reps      int         `json:"reps"`
	Rows      []Table1Row `json:"rows"`
}

// CollectTable1 measures every kernel under the prototype checker and
// assembles the paper's Table 1 characteristics: unique locations, DPST
// nodes, LCA queries, the unique-LCA percentage, and the detected
// violations with provenance.
func CollectTable1(workers int, scale float64, reps int) (*Table1Data, error) {
	// The cached-walk configuration is the one whose unique-LCA column is
	// meaningful; the default label mode consults no cache.
	return collectTable1(PrototypeCachedLCA(workers), workers, scale, reps)
}

// CollectTable1Batched measures Table 1 with the step-granular access
// coalescer in front of the checker; the characteristic columns must
// come out identical to CollectTable1 (batching is output-invisible),
// and the rows additionally carry the flush and batched-access counts.
func CollectTable1Batched(workers int, scale float64, reps int) (*Table1Data, error) {
	cfg := PrototypeCachedLCA(workers)
	cfg.Name += "+batch"
	cfg.Opts.Batch = true
	return collectTable1(cfg, workers, scale, reps)
}

func collectTable1(cfg Config, workers int, scale float64, reps int) (*Table1Data, error) {
	sizes := Sizes(scale)
	resolved := workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	d := &Table1Data{
		Workers:   resolved,
		GoVersion: runtime.Version(),
		Scale:     scale,
		Reps:      reps,
	}
	for _, k := range bench.All() {
		m, err := Measure(k, cfg, sizes[k.Name], reps)
		if err != nil {
			return nil, err
		}
		st := m.Report.Stats
		row := Table1Row{
			Kernel:          k.Name,
			N:               m.N,
			Locations:       st.Locations,
			DPSTNodes:       st.DPSTNodes,
			LCAQueries:      st.LCAQueries,
			UniquePercent:   st.UniquePercent(),
			ViolationCount:  m.Report.ViolationCount,
			BatchFlushes:    st.BatchFlushes,
			BatchedAccesses: st.BatchedAccesses,
			WindowElisions:  st.WindowElisions,
		}
		for i, v := range m.Report.Violations {
			if i == maxTable1Violations {
				break
			}
			row.Violations = append(row.Violations, violationRecord(v))
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// RenderTable1 writes the text rendering of Table 1.
func RenderTable1(w io.Writer, d *Table1Data) {
	fmt.Fprintf(w, "Table 1: benchmark characteristics under the atomicity checker\n")
	fmt.Fprintf(w, "%-14s %12s %12s %12s %10s\n", "Benchmark", "Locations", "DPST nodes", "LCA queries", "% unique")
	for _, row := range d.Rows {
		unique := "-NA-"
		if row.LCAQueries > 0 {
			unique = fmt.Sprintf("%.2f", row.UniquePercent)
		}
		fmt.Fprintf(w, "%-14s %12s %12s %12s %10s\n",
			row.Kernel, human(row.Locations), human(int64(row.DPSTNodes)), human(row.LCAQueries), unique)
	}
}

// Table1 measures every kernel under the prototype checker and renders
// the paper's Table 1: unique locations, DPST nodes, LCA queries, and
// the unique-LCA percentage.
func Table1(w io.Writer, workers int, scale float64, reps int) error {
	d, err := CollectTable1(workers, scale, reps)
	if err != nil {
		return err
	}
	RenderTable1(w, d)
	return nil
}

// FigureResult is one (kernel, configuration) slowdown measurement in a
// machine-readable figure report.
type FigureResult struct {
	Kernel   string  `json:"kernel"`
	Config   string  `json:"config"`
	N        int     `json:"n"`
	WallNS   int64   `json:"wall_ns"`
	Slowdown float64 `json:"slowdown"`
	// FilterHits/FilterMisses are the batch deduplicator's counters of
	// the measured run (omitted for unbatched configurations, where they
	// read zero), and FilterHitRate is hits/(hits+misses) precomputed for
	// cross-revision diffing.
	FilterHits    int64   `json:"filter_hits,omitempty"`
	FilterMisses  int64   `json:"filter_misses,omitempty"`
	FilterHitRate float64 `json:"filter_hit_rate,omitempty"`
	// BatchFlushes/BatchedAccesses describe the access coalescer of the
	// measured run (omitted for unbatched configurations): drained
	// batches and the accesses they carried. WindowElisions counts the
	// accesses the coalescer's handle-layer front end answered without
	// dispatching at all.
	BatchFlushes    int64 `json:"batch_flushes,omitempty"`
	BatchedAccesses int64 `json:"batched_accesses,omitempty"`
	WindowElisions  int64 `json:"window_elisions,omitempty"`
}

// FigureData is the machine-readable form of a slowdown figure, suitable
// for committing next to the text rendering (BENCH_figure13.json).
type FigureData struct {
	Figure int `json:"figure"`
	// Workers is the resolved worker count (GOMAXPROCS when the
	// configuration requested 0).
	Workers   int                `json:"workers"`
	GoVersion string             `json:"go_version"`
	Scale     float64            `json:"scale"`
	Reps      int                `json:"reps"`
	Configs   []string           `json:"configs"`
	Results   []FigureResult     `json:"results"`
	Geomean   map[string]float64 `json:"geomean"`
}

// WriteJSON writes the figure data, indented, to path.
func (d *FigureData) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// figureData measures every kernel under each configuration (plus the
// uninstrumented baseline all slowdowns are relative to) and collects
// the results. A non-empty kernels list restricts the sweep to the
// named kernels, for targeted CI gates that need more reps or scale
// than a full figure run affords.
func figureData(figure int, configs []Config, workers int, scale float64, reps int, kernels ...string) (*FigureData, error) {
	sizes := Sizes(scale)
	base := Baseline(workers)
	resolved := workers
	if resolved <= 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	d := &FigureData{
		Figure:    figure,
		Workers:   resolved,
		GoVersion: runtime.Version(),
		Scale:     scale,
		Reps:      reps,
		Geomean:   make(map[string]float64),
	}
	for _, cfg := range configs {
		d.Configs = append(d.Configs, cfg.Name)
	}
	want := make(map[string]bool, len(kernels))
	for _, name := range kernels {
		want[name] = true
	}
	for _, k := range bench.All() {
		delete(want, k.Name)
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown kernel(s) %s (see bench.All for the figure's kernel names)",
			strings.Join(unknown, ", "))
	}
	want = make(map[string]bool, len(kernels))
	for _, name := range kernels {
		want[name] = true
	}
	slowdowns := make(map[string][]float64)
	for _, k := range bench.All() {
		if len(want) > 0 && !want[k.Name] {
			continue
		}
		n := sizes[k.Name]
		mb, err := Measure(k, base, n, reps)
		if err != nil {
			return nil, err
		}
		d.Results = append(d.Results, FigureResult{
			Kernel: k.Name, Config: base.Name, N: n,
			WallNS: int64(mb.Seconds * 1e9), Slowdown: 1,
		})
		for _, cfg := range configs {
			m, err := Measure(k, cfg, n, reps)
			if err != nil {
				return nil, err
			}
			sl := m.Seconds / mb.Seconds
			slowdowns[cfg.Name] = append(slowdowns[cfg.Name], sl)
			st := m.Report.Stats
			r := FigureResult{
				Kernel: k.Name, Config: cfg.Name, N: n,
				WallNS: int64(m.Seconds * 1e9), Slowdown: sl,
				FilterHits:      st.FilterHits,
				FilterMisses:    st.FilterMisses,
				BatchFlushes:    st.BatchFlushes,
				BatchedAccesses: st.BatchedAccesses,
				WindowElisions:  st.WindowElisions,
			}
			if total := st.FilterHits + st.FilterMisses; total > 0 {
				r.FilterHitRate = float64(st.FilterHits) / float64(total)
			}
			d.Results = append(d.Results, r)
		}
	}
	for name, xs := range slowdowns {
		d.Geomean[name] = GeoMean(xs)
	}
	return d, nil
}

// Figure titles shared by the text renderings here and in cmd/avd-bench.
const (
	Figure13Title = "Figure 13: execution-time slowdown vs uninstrumented baseline"
	Figure14Title = "Figure 14: checker slowdown with array-based vs linked DPST"
)

// RenderFigure writes the text rendering of a slowdown figure: one row
// per kernel, one column per configuration, and a geo.mean row.
func RenderFigure(w io.Writer, title string, d *FigureData) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s", "Benchmark")
	for _, name := range d.Configs {
		fmt.Fprintf(w, " %14s", name)
	}
	fmt.Fprintln(w)
	byKernel := make(map[string]map[string]float64)
	var kernels []string
	for _, r := range d.Results {
		if r.Config == "baseline" {
			continue
		}
		if byKernel[r.Kernel] == nil {
			byKernel[r.Kernel] = make(map[string]float64)
			kernels = append(kernels, r.Kernel)
		}
		byKernel[r.Kernel][r.Config] = r.Slowdown
	}
	for _, k := range kernels {
		fmt.Fprintf(w, "%-14s", k)
		for _, name := range d.Configs {
			fmt.Fprintf(w, " %13.2fx", byKernel[k][name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "geo.mean")
	for _, name := range d.Configs {
		fmt.Fprintf(w, " %13.2fx", d.Geomean[name])
	}
	fmt.Fprintln(w)
}

// Figure13Data measures the default prototype, the batched coalescer,
// the cached-walk ablation, and Velodrome against the baseline. An
// optional kernel list restricts the sweep (see figureData).
func Figure13Data(workers int, scale float64, reps int, kernels ...string) (*FigureData, error) {
	return figureData(13, []Config{
		PrototypeLabels(workers),
		PrototypeBatch(workers),
		PrototypeCachedLCA(workers),
		Velodrome(workers),
	}, workers, scale, reps, kernels...)
}

// Figure13 measures the prototype configurations and Velodrome against
// the baseline and renders the slowdown comparison with geometric means.
func Figure13(w io.Writer, workers int, scale float64, reps int) error {
	d, err := Figure13Data(workers, scale, reps)
	if err != nil {
		return err
	}
	RenderFigure(w, Figure13Title, d)
	return nil
}

// Figure14Data measures the DPST layout ablation: the label-MHP default
// alongside the array and linked layouts under the cached tree walk (the
// paper's configuration) and the uncached walk (every query traverses
// the tree, isolating the layout cost).
func Figure14Data(workers int, scale float64, reps int, kernels ...string) (*FigureData, error) {
	return figureData(14, []Config{
		PrototypeLabels(workers),
		PrototypeCachedLCA(workers),
		PrototypeLinked(workers),
		PrototypeNoCache(workers),
		PrototypeLinkedNoCache(workers),
	}, workers, scale, reps, kernels...)
}

// Figure14 compares the array and linked DPST layouts, with the LCA
// cache enabled (the paper's configuration) and disabled (every query
// walks the tree, isolating the layout cost), next to the label-MHP
// default that walks no tree at all.
func Figure14(w io.Writer, workers int, scale float64, reps int) error {
	d, err := Figure14Data(workers, scale, reps)
	if err != nil {
		return err
	}
	RenderFigure(w, Figure14Title, d)
	return nil
}
