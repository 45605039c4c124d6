package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
)

// PerfettoOptions configures ExportPerfetto.
type PerfettoOptions struct {
	// SkipViolations disables the offline checker replay that overlays
	// violation instants; the export then shows structure only.
	SkipViolations bool
	// MaxExplanations caps the rendered violation explanations embedded
	// in otherData (default 100; the instants themselves are never
	// capped).
	MaxExplanations int
	// StrictLockChecks runs the overlay checker with the strict-lock
	// extension, which also attaches per-access lockset provenance to
	// the stored interleaver side. Match this to the session options the
	// trace was recorded under.
	StrictLockChecks bool
}

// perfEvent is one Chrome trace-event record (the JSON the Perfetto UI
// and chrome://tracing ingest). Ph selects the phase: B/E duration
// begin/end, b/e async begin/end (ID-matched, may overlap on a track),
// i instant, C counter, M metadata.
type perfEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Ts   float64        `json:"ts"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfTrace is the trace-event JSON object form.
type perfTrace struct {
	TraceEvents     []perfEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Track processes: tasks (DPST view), workers (execution view), and —
// for run-span exports — the server timeline (one track per shard).
const (
	pidTasks   int32 = 1
	pidWorkers int32 = 2
	pidServer  int32 = 3
)

// violationOverlay replays the trace through the optimized checker and
// returns, per trace event index, the violations first detected at that
// event, plus the DPST step node of every access (in KAccess order) for
// step-span naming.
func violationOverlay(tr *Trace, strict bool) (map[int][]checker.Violation, []dpst.NodeID, error) {
	var accessIdx []int
	for i, e := range tr.Events {
		if e.Kind == KAccess {
			accessIdx = append(accessIdx, i)
		}
	}
	tree := dpst.New(dpst.ArrayLayout)
	rep := checker.NewReporter(0)
	sink := &overlaySink{
		viol: make(map[int][]checker.Violation),
		seen: make(map[violationIdentity]struct{}),
		idx:  accessIdx,
		k:    -1,
	}
	rep.SetObserver(sink.observe)
	sink.chk = checker.New(checker.Options{
		Query:            dpst.NewQueryMode(tree, dpst.ModeLabels),
		Reporter:         rep,
		StrictLockChecks: strict,
	})
	if err := Replay(tr, tree, sink, nil); err != nil {
		return nil, nil, err
	}
	return sink.viol, sink.steps, nil
}

// violationIdentity mirrors the reporter's triple identity for
// cross-task deduplication of overlay instants.
type violationIdentity struct {
	loc        sched.Loc
	pat, inter dpst.NodeID
	a1, a2, a3 checker.AccessType
}

type overlaySink struct {
	chk   checker.Checker
	viol  map[int][]checker.Violation
	seen  map[violationIdentity]struct{}
	idx   []int // trace event index of each access ordinal
	steps []dpst.NodeID
	k     int // current access ordinal
}

func (s *overlaySink) Access(ts checker.TaskState, loc sched.Loc, write bool) {
	s.k++
	s.steps = append(s.steps, ts.StepNode())
	s.chk.Access(ts, loc, write)
}

// observe receives each newly admitted violation synchronously from the
// checker, i.e. while the access that detected it is being replayed.
func (s *overlaySink) observe(v checker.Violation) {
	id := violationIdentity{v.Loc, v.PatternStep, v.InterleaverStep, v.First, v.Middle, v.Last}
	if _, dup := s.seen[id]; dup {
		return
	}
	s.seen[id] = struct{}{}
	ev := s.idx[s.k]
	s.viol[ev] = append(s.viol[ev], v)
}

// exporter carries the per-track emission state of one export.
type exporter struct {
	out []perfEvent
	ts  func(i int) float64
	// openStep is the step span currently open on each task track
	// (dpst.None when closed); taskOpen marks emitted-but-unended task
	// lifetime spans.
	openStep []dpst.NodeID
	taskOpen []bool
	// curWorker tracks the task span open on each worker track.
	curWorker map[int32]int32
}

func (x *exporter) emit(e perfEvent) { x.out = append(x.out, e) }

// closeStep ends the open step span of a task track, if any.
func (x *exporter) closeStep(task int32, ts float64) {
	if x.openStep[task] != dpst.None {
		x.emit(perfEvent{Ph: "E", Ts: ts, Pid: pidTasks, Tid: task})
		x.openStep[task] = dpst.None
	}
}

// ExportPerfetto renders a trace as Chrome trace-event / Perfetto JSON:
// per-task tracks carrying the task-lifetime, finish-scope, and DPST
// step spans, per-worker tracks showing which task each scheduler
// worker executed (when the trace was recorded live and carries worker
// annotations), violation instants at their detection points with
// human-readable explanations, and chaos injections. Timestamps use the
// recorded wall-clock nanoseconds when present, else one microsecond
// per event (logical time). Load the output at https://ui.perfetto.dev
// or chrome://tracing.
func ExportPerfetto(tr *Trace, w io.Writer, opts PerfettoOptions) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	var (
		viol  map[int][]checker.Violation
		steps []dpst.NodeID
	)
	if !opts.SkipViolations {
		var err error
		if viol, steps, err = violationOverlay(tr, opts.StrictLockChecks); err != nil {
			return fmt.Errorf("trace: perfetto overlay: %w", err)
		}
	}

	hasTs := false
	hasWorker := false
	for _, e := range tr.Events {
		if e.Ts > 0 {
			hasTs = true
		}
		if e.W > 0 {
			hasWorker = true
		}
	}
	x := &exporter{
		openStep:  make([]dpst.NodeID, tr.Tasks),
		taskOpen:  make([]bool, tr.Tasks),
		curWorker: make(map[int32]int32),
	}
	for i := range x.openStep {
		x.openStep[i] = dpst.None
	}
	if hasTs {
		x.ts = func(i int) float64 { return float64(tr.Events[i].Ts) / 1e3 }
	} else {
		x.ts = func(i int) float64 { return float64(i) }
	}

	// Track metadata: process and thread names.
	x.emit(perfEvent{Ph: "M", Name: "process_name", Pid: pidTasks, Args: map[string]any{"name": "avd tasks (DPST view)"}})
	for t := int32(0); t < tr.Tasks; t++ {
		x.emit(perfEvent{Ph: "M", Name: "thread_name", Pid: pidTasks, Tid: t, Args: map[string]any{"name": fmt.Sprintf("task %d", t)}})
	}
	if hasWorker {
		x.emit(perfEvent{Ph: "M", Name: "process_name", Pid: pidWorkers, Args: map[string]any{"name": "avd workers (execution view)"}})
	}

	// Root lifetime opens at the first event.
	x.emit(perfEvent{Name: "task 0", Ph: "B", Ts: x.ts(0), Pid: pidTasks, Tid: 0, Cat: "task"})
	x.taskOpen[0] = true

	var explanations []string
	violTotal := 0
	access := -1 // access ordinal, aligned with steps
	for i, e := range tr.Events {
		ts := x.ts(i)
		if hasWorker && e.W > 0 {
			w := int32(e.Worker())
			if cur, open := x.curWorker[w]; !open || cur != e.Task {
				if open {
					x.emit(perfEvent{Ph: "E", Ts: ts, Pid: pidWorkers, Tid: w})
				}
				x.emit(perfEvent{Name: fmt.Sprintf("task %d", e.Task), Ph: "B", Ts: ts, Pid: pidWorkers, Tid: w, Cat: "task"})
				x.curWorker[w] = e.Task
			}
		}
		switch e.Kind {
		case KSpawn:
			x.closeStep(e.Task, ts)
			x.emit(perfEvent{
				Name: fmt.Sprintf("task %d", e.Child), Ph: "B", Ts: ts,
				Pid: pidTasks, Tid: e.Child, Cat: "task",
				Args: map[string]any{"parent": e.Task},
			})
			x.taskOpen[e.Child] = true
		case KFinishBegin:
			x.closeStep(e.Task, ts)
			x.emit(perfEvent{Name: "finish", Ph: "B", Ts: ts, Pid: pidTasks, Tid: e.Task, Cat: "finish"})
		case KFinishEnd:
			x.closeStep(e.Task, ts)
			x.emit(perfEvent{Ph: "E", Ts: ts, Pid: pidTasks, Tid: e.Task})
		case KAccess:
			access++
			if steps != nil {
				step := steps[access]
				if x.openStep[e.Task] != step {
					x.closeStep(e.Task, ts)
					x.emit(perfEvent{Name: fmt.Sprintf("step S%d", step), Ph: "B", Ts: ts, Pid: pidTasks, Tid: e.Task, Cat: "step"})
					x.openStep[e.Task] = step
				}
			}
			for _, v := range viol[i] {
				violTotal++
				expl := v.Explain()
				if len(explanations) < maxExpl(opts) {
					explanations = append(explanations, expl)
				}
				x.emit(perfEvent{
					Name: fmt.Sprintf("violation %s @ loc %d", v.PatternName(), v.Loc),
					Ph:   "i", S: "t", Ts: ts, Pid: pidTasks, Tid: e.Task, Cat: "violation",
					Args: map[string]any{"explanation": expl},
				})
				x.emit(perfEvent{
					Name: "violations", Ph: "C", Ts: ts, Pid: pidTasks, Tid: 0,
					Args: map[string]any{"count": violTotal},
				})
			}
		case KTaskEnd:
			x.closeStep(e.Task, ts)
			if x.taskOpen[e.Task] {
				x.emit(perfEvent{Ph: "E", Ts: ts, Pid: pidTasks, Tid: e.Task})
				x.taskOpen[e.Task] = false
			}
		case KInject:
			x.emit(perfEvent{
				Name: "inject " + chaos.Fault(e.Fault).String(),
				Ph:   "i", S: "t", Ts: ts, Pid: pidTasks, Tid: e.Task, Cat: "chaos",
			})
		}
	}

	// Close anything still open (truncated or generated traces may lack
	// task-end events) so B/E stay balanced.
	end := x.ts(len(tr.Events)-1) + 1
	for t := int32(0); t < tr.Tasks; t++ {
		x.closeStep(t, end)
		if x.taskOpen[t] {
			x.emit(perfEvent{Ph: "E", Ts: end, Pid: pidTasks, Tid: t})
		}
	}
	workers := make([]int32, 0, len(x.curWorker))
	for w := range x.curWorker {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	for _, w := range workers {
		x.emit(perfEvent{Ph: "E", Ts: end, Pid: pidWorkers, Tid: w})
	}

	other := map[string]any{
		"tasks":      tr.Tasks,
		"events":     len(tr.Events),
		"violations": violTotal,
	}
	if len(explanations) > 0 {
		other["explanations"] = explanations
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(perfTrace{
		TraceEvents:     x.out,
		DisplayTimeUnit: "ms",
		OtherData:       other,
	})
}

func maxExpl(opts PerfettoOptions) int {
	if opts.MaxExplanations > 0 {
		return opts.MaxExplanations
	}
	return 100
}
