package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/checker"
	"github.com/taskpar/avd/internal/dpst"
	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/server"
	"github.com/taskpar/avd/internal/trace"
)

// stepSink is a trace.Sink that checks nothing: replaying into it costs
// DPST construction only. When collecting it also remembers the step
// nodes, for the query probe.
type stepSink struct {
	seen  map[dpst.NodeID]bool // nil: do not collect
	steps []dpst.NodeID
}

func (s *stepSink) Access(ts checker.TaskState, _ sched.Loc, _ bool) {
	if s.seen == nil {
		return
	}
	if n := ts.StepNode(); !s.seen[n] {
		s.seen[n] = true
		s.steps = append(s.steps, n)
	}
}

// heapAlloc is the live heap. It collects twice because sync.Pool
// contents (encoding/json keeps whole encoded traces there) survive one
// collection.
func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// directCost is what checking one upload costs without the service:
// the same three calls the service makes, timed from outside.
type directCost struct {
	decodeMs, replayMs, renderMs float64
}

func (d directCost) total() float64 { return d.decodeMs + d.replayMs + d.renderMs }

// checkDirect decodes, replays and renders body in-process, verifies
// the answer against p.want, and records one span per call.
func checkDirect(p *prog, body []byte, tr *tracer, op int64) (directCost, error) {
	var c directCost
	root := tr.begin("direct", -1, op)
	defer tr.end(root)

	sp := tr.begin("trace.decode", root, op)
	start := time.Now()
	decoded, err := trace.DecodeLimited(bytes.NewReader(body), 0)
	c.decodeMs = ms(time.Since(start))
	tr.end(sp)
	if err != nil {
		return c, fmt.Errorf("%s: direct decode: %w", p.name, err)
	}

	sp = tr.begin("checker.replay", root, op)
	start = time.Now()
	rep, err := avd.ReplayTrace(decoded, avd.Options{})
	c.replayMs = ms(time.Since(start))
	tr.end(sp)
	if err != nil {
		return c, fmt.Errorf("%s: direct replay: %w", p.name, err)
	}

	sp = tr.begin("server.render", root, op)
	start = time.Now()
	var text bytes.Buffer
	server.RenderReport(&text, rep)
	c.renderMs = ms(time.Since(start))
	tr.end(sp)
	return c, verifyReport(p, text.Bytes())
}

// setLayers fills the dpst, checker and trace layer metrics by driving
// each layer's public entry points over the workload's own traces.
// Times are sums over the programs, medians over up to
// cfg.size.probeReps passes (fewer when a pass is long against the
// window); counts and heap sizes come from one pass.
func (o *outcome) setLayers(progs []*prog, cfg runConfig) error {
	events, accesses := totalEvents(progs)
	ev := float64(events)
	var encodeNs, decodeNs, buildNs, replayNs, renderNs []float64
	var bodies [][]byte
	probeStart := time.Now()
	for rep := 0; rep < cfg.size.probeReps && (rep == 0 || time.Since(probeStart) < cfg.seconds/8); rep++ {
		var enc, dec, build, replay, render time.Duration
		bodies = bodies[:0]
		for i, p := range progs {
			op := int64(rep*len(progs) + i)
			root := cfg.tracer.begin("probe", -1, op)

			sp := cfg.tracer.begin("trace.encode", root, op)
			start := time.Now()
			var buf bytes.Buffer
			err := p.trace.Encode(&buf)
			enc += time.Since(start)
			cfg.tracer.end(sp)
			if err != nil {
				return fmt.Errorf("%s: encode: %w", p.name, err)
			}
			bodies = append(bodies, buf.Bytes())

			sp = cfg.tracer.begin("dpst.build", root, op)
			start = time.Now()
			err = trace.Replay(p.trace, dpst.NewArrayTree(), &stepSink{}, nil)
			build += time.Since(start)
			cfg.tracer.end(sp)
			if err != nil {
				return fmt.Errorf("%s: dpst build: %w", p.name, err)
			}
			cfg.tracer.end(root)

			c, err := checkDirect(p, buf.Bytes(), cfg.tracer, op)
			if err != nil {
				return err
			}
			dec += time.Duration(c.decodeMs * 1e6)
			replay += time.Duration(c.replayMs * 1e6)
			render += time.Duration(c.renderMs * 1e6)
		}
		encodeNs = append(encodeNs, float64(enc))
		decodeNs = append(decodeNs, float64(dec))
		buildNs = append(buildNs, float64(build))
		replayNs = append(replayNs, float64(replay))
		renderNs = append(renderNs, float64(render))
	}
	var bodyBytes float64
	for _, b := range bodies {
		bodyBytes += float64(len(b))
	}
	o.set("trace.bytes_per_event", bodyBytes/ev)
	o.set("trace.encode_ns_per_event", median(encodeNs)/ev)
	o.set("trace.decode_ns_per_event", median(decodeNs)/ev)
	o.set("trace.decode_mb_per_s", ratio(bodyBytes/1e6, median(decodeNs)/1e9))
	o.set("dpst.build_ns_per_event", median(buildNs)/ev)
	// ReplayTrace builds the tree as it checks; what is left after the
	// construction-only replay is the checker proper.
	o.set("checker.replay_ns_per_event", (median(replayNs)-median(buildNs))/ev)
	o.set("server.render_us_per_report", median(renderNs)/1e3/float64(len(progs)))

	// Decoded size: every trace decoded and held live at once.
	before := heapAlloc()
	decoded := make([]*avd.Trace, len(bodies))
	for i, b := range bodies {
		var err error
		if decoded[i], err = trace.DecodeLimited(bytes.NewReader(b), 0); err != nil {
			return err
		}
	}
	o.set("trace.decoded_heap_bytes_per_event", (heapAlloc()-before)/ev)
	runtime.KeepAlive(decoded)
	runtime.KeepAlive(bodies) // live on both sides, or their release hides the traces
	decoded = nil

	// Checker state: every finished replayer held live at once.
	before = heapAlloc()
	replayers := make([]*avd.Replayer, len(progs))
	var nodes, lca, locations float64
	for i, p := range progs {
		r, err := avd.NewReplayer(avd.Options{})
		if err != nil {
			return err
		}
		rep, err := r.Replay(context.Background(), p.trace)
		if err != nil {
			return fmt.Errorf("%s: replay: %w", p.name, err)
		}
		replayers[i] = r
		nodes += float64(rep.Stats.DPSTNodes)
		lca += float64(rep.Stats.LCAQueries)
		locations += float64(rep.Stats.Locations)
	}
	held := heapAlloc() - before
	runtime.KeepAlive(replayers)
	replayers = nil
	o.set("checker.locations", locations)
	o.set("checker.heap_bytes_per_location", ratio(held, locations))
	o.set("dpst.nodes_per_kevent", nodes/ev*1e3)
	o.set("dpst.lca_queries_per_kevent", lca/ev*1e3)

	// Query cost: seeded random pairs of step nodes on each program's
	// tree, the same number of queries whatever the tree.
	const queries = 200_000
	r := rand.New(rand.NewSource(cfg.seed))
	var steps float64
	var parNs time.Duration
	var parallel, asked int
	per := queries/len(progs) + 1
	for _, p := range progs {
		tree := dpst.NewArrayTree()
		sink := &stepSink{seen: make(map[dpst.NodeID]bool)}
		if err := trace.Replay(p.trace, tree, sink, nil); err != nil {
			return err
		}
		steps += float64(len(sink.steps))
		if len(sink.steps) < 2 {
			continue
		}
		pairs := make([][2]dpst.NodeID, per)
		for i := range pairs {
			pairs[i] = [2]dpst.NodeID{sink.steps[r.Intn(len(sink.steps))], sink.steps[r.Intn(len(sink.steps))]}
		}
		q := dpst.NewQuery(tree, false)
		sp := cfg.tracer.begin("dpst.par", -1, 0)
		start := time.Now()
		for _, pr := range pairs {
			if q.Par(pr[0], pr[1]) {
				parallel++
			}
		}
		parNs += time.Since(start)
		cfg.tracer.end(sp)
		asked += per
	}
	o.set("dpst.par_ns_per_query", ratio(float64(parNs), float64(asked)))
	o.set("avd.accesses_per_step", ratio(float64(accesses), steps))
	o.note("dpst.par: %d of %d random step pairs parallel", parallel, asked)
	return nil
}
