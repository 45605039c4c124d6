package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	avd "github.com/taskpar/avd"
)

func needTwoProcs(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
}

// TestSmoke runs every workload in both modes at toy size and checks
// that each reports exactly its mode's metrics, finite and under the
// declared unit, with no failed op, and that one seed generates
// byte-identical inputs twice.
func TestSmoke(t *testing.T) {
	needTwoProcs(t)
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cfg := runConfig{seed: 7, seconds: 100 * time.Millisecond, trace: trace, size: smoke}
			out, err := runWorkload(w.Name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
				if len(out.SelfTimes) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v (present %v), want finite in %s", w.Name, trace, d.Name, v, ok, d.Unit)
				}
			}
			if trace == 0 {
				again, err := buildInputs(w.Name, cfg)
				if err != nil {
					t.Fatalf("%s again: %v", w.Name, err)
				}
				if out.Inputs == "" || out.Inputs != again.digest {
					t.Errorf("%s: seed 7 gave inputs %s then %s", w.Name, out.Inputs, again.digest)
				}
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json and the tables in metrics.go equal.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", m.Workloads, workloads)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", m.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmarks"}) || strings.Join(m.Command, " ") != "go run ./benchmarks/avdbench" {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// bankProg is the examples/bankaccount shape, unsynchronized: a
// transfer and an audit in parallel tasks over two balances that form
// one atomic unit. Its recorded trace has a violation, but it claims,
// like a kernel, to have none.
func bankProg(t *testing.T) *prog {
	p := &prog{name: "bankaccount", locOf: func(l avd.Loc) int { return int(l) }}
	s := avd.NewSession(avd.Options{Workers: 1, RecordTrace: true})
	defer s.Close()
	checking, savings := s.NewIntVar("checking"), s.NewIntVar("savings")
	s.Atomic(checking, savings)
	s.Run(func(t *avd.Task) {
		checking.Store(t, 900)
		savings.Store(t, 100)
		t.Finish(func(t *avd.Task) {
			t.Spawn(func(t *avd.Task) {
				checking.Store(t, checking.Load(t)-50)
				savings.Store(t, savings.Load(t)+50)
			})
			t.Spawn(func(t *avd.Task) { _ = checking.Load(t) + savings.Load(t) })
		})
	})
	if s.Report().ViolationCount == 0 {
		t.Fatal("bank account program reported no violation; the self-test needs one")
	}
	p.setTrace(s.RecordedTrace())
	return p
}

// TestVerifierCountsWrongAnswers is the benchmark's self-test: an op
// whose report disagrees with the known answer must count as failed, or
// a benchmark that stopped checking outputs would pass silently.
func TestVerifierCountsWrongAnswers(t *testing.T) {
	needTwoProcs(t)
	// submitAll pushes every upload through a service once, booking each
	// op exactly as a workload's phase does.
	submitAll := func(ups []*upload) *serveTotals {
		t.Helper()
		sv := startService()
		tot := &serveTotals{}
		for i, up := range ups {
			sm, err := sv.submit(up.body, up, int64(i), nil)
			tot.record(up, sm, err)
		}
		if err := sv.stop(); err != nil {
			t.Fatal(err)
		}
		return tot
	}

	// serve-fresh's check: a violating trace where none is expected.
	ups, err := encodeUploads([]*prog{bankProg(t)})
	if err != nil {
		t.Fatal(err)
	}
	if tot := submitAll(ups); tot.ops != 1 || tot.failed != 1 {
		t.Errorf("seeded violation: %d of %d ops failed, want 1 of 1", tot.failed, tot.ops)
	}

	// serve-small's check: right reports against a wrong oracle set.
	progs, err := randomProgs(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ups, err = encodeUploads(progs); err != nil {
		t.Fatal(err)
	}
	if tot := submitAll(ups); tot.ops != 16 || tot.failed != 0 {
		t.Fatalf("true oracle: %d of %d ops failed, want 0 of 16", tot.failed, tot.ops)
	}
	for _, p := range progs {
		wrong := make(map[int]bool)
		for l := range p.want {
			wrong[l] = true
		}
		if wrong[0] {
			delete(wrong, 0)
		} else {
			wrong[0] = true
		}
		p.want = wrong
	}
	if tot := submitAll(ups); tot.ops != 16 || tot.failed != 16 {
		t.Errorf("wrong oracle: %d of %d ops failed, want 16 of 16", tot.failed, tot.ops)
	}

	// The live check: the same wrong answers on the real scheduler.
	if ls := liveRounds(progs, 1, 3, rounds(1), nil); ls.failed != ls.ops {
		t.Errorf("live, wrong oracle: %d of %d ops failed", ls.failed, ls.ops)
	}
}

// TestRefusesSharedCore: two workers or clients on one core would
// report time-slicing, so those workloads, and every traced run (each
// has two-worker rounds and a two-client service), refuse to run.
func TestRefusesSharedCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		workload string
		trace    int
	}{{"live-parallel", 0}, {"serve-fresh", 0}, {"serve-small", 0}, {"live-churn", 1}, {"live-reuse", 1}} {
		if _, err := runWorkload(c.workload, runConfig{seed: 1, trace: c.trace, size: smoke}); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("%s trace=%d at GOMAXPROCS=1: err = %v, want a refusal", c.workload, c.trace, err)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 120, 90, 125, 85, 110, 95, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"slower", lower, steady, scale(steady, 1.2), "REGRESSED"},
		{"faster", lower, steady, scale(steady, 0.8), "improved"},
		{"fewer events", higher, steady, scale(steady, 0.8), "REGRESSED"},
		{"more events", higher, steady, scale(steady, 1.2), "improved"},
		{"within bound", lower, steady, scale(steady, 1.05), "unchanged"},
		{"noise hides it", lower, noisy, scale(noisy, 1.05), "unresolved"},
	} {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareRefusesMixedRSS: peak_rss_mb covers set-up where the kernel
// refuses to restart VmHWM, so two sets that differ in that are not
// comparable.
func TestCompareRefusesMixedRSS(t *testing.T) {
	write := func(name string, restarts bool) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(resultSet{Env: envInfo{HWMRestarts: restarts}, Defs: endToEnd})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", true), write("b.json", false)
	if err := compareFiles(io.Discard, a, b); err == nil || !strings.Contains(err.Error(), "vmhwm_restarts") {
		t.Errorf("mixed sets: err = %v, want a refusal", err)
	}
	if err := compareFiles(io.Discard, a, a); err != nil {
		t.Errorf("same set: %v", err)
	}
}

// TestWindowedQuantile: a burst of the host's (a few consecutive rounds
// slow) does not move the windowed tail, which the pooled p95 of the
// same reps follows; a slow rep in every dozen does.
func TestWindowedQuantile(t *testing.T) {
	const rounds, progs = 30, 4
	flat := func() [][]float64 {
		rel := make([][]float64, progs)
		for j := range rel {
			for r := 0; r < rounds; r++ {
				rel[j] = append(rel[j], 1+0.001*float64((r*progs+j)%7))
			}
		}
		return rel
	}
	pooledP95 := func(rel [][]float64) float64 {
		var all []float64
		for _, r := range rel {
			all = append(all, r...)
		}
		return quantile(all, 0.95)
	}
	quiet := windowedQuantile(flat(), 0.95)

	burst := flat()
	for j := range burst {
		for r := 10; r < 13; r++ {
			burst[j][r] *= 1.5
		}
	}
	if got := windowedQuantile(burst, 0.95); math.Abs(got-quiet) > 0.01 {
		t.Errorf("a three-round burst moved the windowed p95 from %.3f to %.3f", quiet, got)
	}
	if got := pooledP95(burst); got < 1.4 {
		t.Errorf("pooled p95 of the burst reps is %.3f; the test's burst is too small to tell the two apart", got)
	}

	tail := flat()
	for r := 0; r < rounds; r++ {
		if r%3 == 0 {
			tail[r%progs][r] *= 1.5 // one rep in twelve
		}
	}
	if got := windowedQuantile(tail, 0.95); got < 1.2 {
		t.Errorf("a slow rep in every dozen reads %.3f, want it to show", got)
	}
}
