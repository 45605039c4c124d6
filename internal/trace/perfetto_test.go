package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/taskpar/avd/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// perfettoTrace is the Figure 1 shape with a locked interleaver and a
// chaos injection annotation: task 0 writes X, then inside a finish
// spawns task 1 (read X; write X) and task 2 (write X under lock 1).
// Task 2's write lands between task 1's read and write, so the replay
// observes the RWW pattern directly. No timestamps or worker IDs, so
// the export uses deterministic logical time.
func perfettoTrace() *trace.Trace {
	return &trace.Trace{Tasks: 3, Events: []trace.Event{
		{Kind: trace.KAccess, Task: 0, Loc: 1, Write: true},
		{Kind: trace.KFinishBegin, Task: 0},
		{Kind: trace.KSpawn, Task: 0, Child: 1},
		{Kind: trace.KInject, Task: 1, Fault: 1},
		{Kind: trace.KAccess, Task: 1, Loc: 1, Write: false},
		{Kind: trace.KSpawn, Task: 0, Child: 2},
		{Kind: trace.KAcquire, Task: 2, Lock: 1},
		{Kind: trace.KAccess, Task: 2, Loc: 1, Write: true},
		{Kind: trace.KRelease, Task: 2, Lock: 1},
		{Kind: trace.KTaskEnd, Task: 2},
		{Kind: trace.KAccess, Task: 1, Loc: 1, Write: true},
		{Kind: trace.KTaskEnd, Task: 1},
		{Kind: trace.KFinishEnd, Task: 0},
		{Kind: trace.KTaskEnd, Task: 0},
	}}
}

func TestExportPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(perfettoTrace(), &buf, trace.PerfettoOptions{StrictLockChecks: true}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

// TestExportPerfettoWellFormed checks the structural invariants the
// Perfetto UI relies on: parseable JSON, balanced B/E stacks per
// (pid, tid) track, and the violation overlay present.
func TestExportPerfettoWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(perfettoTrace(), &buf, trace.PerfettoOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			Ts   float64 `json:"ts"`
			Pid  int32   `json:"pid"`
			Tid  int32   `json:"tid"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	type track struct{ pid, tid int32 }
	depth := map[track]int{}
	lastTs := map[track]float64{}
	violations, injections := 0, 0
	for i, e := range doc.TraceEvents {
		k := track{e.Pid, e.Tid}
		if e.Ph == "B" || e.Ph == "E" {
			if e.Ts < lastTs[k] {
				t.Fatalf("event %d: ts %v goes backwards on track %v", i, e.Ts, k)
			}
			lastTs[k] = e.Ts
		}
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("event %d: E without matching B on track %v", i, k)
			}
		case "i":
			switch e.Cat {
			case "violation":
				violations++
			case "chaos":
				injections++
			}
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("track %v left %d spans open", k, d)
		}
	}
	if violations == 0 {
		t.Fatal("no violation instants in export")
	}
	if injections != 1 {
		t.Fatalf("got %d chaos instants, want 1", injections)
	}
	if got, _ := doc.OtherData["violations"].(float64); got < 1 {
		t.Fatalf("otherData.violations = %v, want >= 1", doc.OtherData["violations"])
	}
}

// TestExportPerfettoWorkerTracks exercises the execution-view process:
// worker annotations must yield pid-2 spans that follow task migration.
func TestExportPerfettoWorkerTracks(t *testing.T) {
	tr := perfettoTrace()
	for i := range tr.Events {
		tr.Events[i].W = 1 // worker 0
		if tr.Events[i].Task == 2 {
			tr.Events[i].W = 2 // task 2 stolen by worker 1
		}
	}
	var buf bytes.Buffer
	if err := trace.ExportPerfetto(tr, &buf, trace.PerfettoOptions{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int32  `json:"pid"`
			Tid int32  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	workers := map[int32]bool{}
	for _, e := range doc.TraceEvents {
		if e.Pid == 2 && e.Ph == "B" {
			workers[e.Tid] = true
		}
	}
	if !workers[0] || !workers[1] {
		t.Fatalf("worker tracks = %v, want spans on workers 0 and 1", workers)
	}
}
