package trace_test

import (
	"bytes"
	"testing"

	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/trace"
	"github.com/taskpar/avd/internal/velodrome"
)

// seedTraces returns the fuzz seed corpus: a few structurally valid
// traces (encoded with the real encoder) plus known-hostile inputs that
// previously reached allocation before validation.
func seedTraces(t testing.TB) [][]byte {
	valid := []*trace.Trace{
		{Tasks: 1, Events: []trace.Event{
			{Kind: trace.KAccess, Task: 0, Loc: 1, Write: true},
			{Kind: trace.KTaskEnd, Task: 0},
		}},
		{Tasks: 3, Events: []trace.Event{
			{Kind: trace.KFinishBegin, Task: 0},
			{Kind: trace.KSpawn, Task: 0, Child: 1},
			{Kind: trace.KSpawn, Task: 0, Child: 2},
			{Kind: trace.KAccess, Task: 1, Loc: 100, Write: true},
			{Kind: trace.KAcquire, Task: 2, Lock: 1},
			{Kind: trace.KAccess, Task: 2, Loc: 100, Write: true},
			{Kind: trace.KAccess, Task: 2, Loc: 100},
			{Kind: trace.KRelease, Task: 2, Lock: 1},
			{Kind: trace.KAccess, Task: 1, Loc: 100},
			{Kind: trace.KTaskEnd, Task: 1},
			{Kind: trace.KTaskEnd, Task: 2},
			{Kind: trace.KFinishEnd, Task: 0},
			{Kind: trace.KTaskEnd, Task: 0},
		}},
	}
	var out [][]byte
	for _, tr := range valid {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("encode seed: %v", err)
		}
		out = append(out, buf.Bytes())
	}
	out = append(out,
		[]byte(`{"tasks":-1,"events":[]}`),         // negative count: must not panic sizing slices
		[]byte(`{"tasks":1073741824,"events":[]}`), // absurd count: must not allocate gigabytes
		[]byte(`{"tasks":2,"events":[{"k":0,"t":0,"c":7}]}`),
		[]byte(`not json at all`),
		// Accesses without "l" decode to location 0, the checkers'
		// empty-slot marker: must be refused, not replayed.
		[]byte(`{"tasks":3,"events":[{"k":1,"t":0},{"k":0,"t":0,"c":1},{"k":0,"t":0,"c":2},{"k":3,"t":1},{"k":3,"t":2,"w":true},{"k":3,"t":1,"w":true},{"k":6,"t":1},{"k":6,"t":2},{"k":2,"t":0}]}`),
	)
	return out
}

// FuzzTraceDecode asserts Decode never panics on arbitrary bytes and
// that every trace it accepts satisfies Validate.
func FuzzTraceDecode(f *testing.F) {
	for _, b := range seedTraces(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode accepted a trace Validate rejects: %v", err)
		}
	})
}

// FuzzTraceReplay pushes every decodable input through the full offline
// pipeline — DPST reconstruction and all three detectors — asserting the
// replayer and checkers never panic on adversarial (but validated)
// traces.
func FuzzTraceReplay(f *testing.F) {
	for _, b := range seedTraces(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, alg := range []checker.Algorithm{checker.AlgOptimized, checker.AlgBasic} {
			tree := dpst.NewArrayTree()
			q := dpst.NewQuery(tree, true)
			c := checker.New(checker.Options{Algorithm: alg, Query: q})
			if err := trace.Replay(tr, tree, c, nil); err != nil {
				continue
			}
			c.Reporter().Violations()
		}
		v := velodrome.New()
		if err := trace.Replay(tr, dpst.NewArrayTree(), v, v); err == nil {
			v.Cycles()
		}
	})
}
