package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/server"
)

// upload is one trace as a client submits it.
type upload struct {
	prog    *prog
	body    []byte
	stampAt int // offset of the first event's 16-digit ts
}

func encodeUploads(progs []*prog) ([]*upload, error) {
	ups := make([]*upload, len(progs))
	for i, p := range progs {
		body, at, err := encodeBody(p)
		if err != nil {
			return nil, err
		}
		ups[i] = &upload{prog: p, body: body, stampAt: at}
	}
	return ups, nil
}

// verifyReport checks a rendered report against the program's known
// answer: the set of violating locations must be exactly p.want.
func verifyReport(p *prog, report []byte) error {
	got := make(map[int]bool)
	sc := bufio.NewScanner(bytes.NewReader(report))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var loc uint64
		if _, err := fmt.Sscanf(sc.Text(), "atomicity violation at loc %d:", &loc); err != nil {
			return fmt.Errorf("%s: unreadable report line %q", p.name, sc.Text())
		}
		got[p.locOf(avd.Loc(loc))] = true
	}
	if !sameLocs(got, p.want) {
		return fmt.Errorf("%s: reported locations %v, want %v", p.name, got, p.want)
	}
	return nil
}

// service is one in-process avd-serverd behind loopback HTTP, in its
// zero configuration: default shards, 256-entry report cache, 4096-run
// registry.
type service struct {
	svc  *server.Service
	http *httptest.Server
}

func startService() *service {
	svc := server.New(server.Config{})
	return &service{svc: svc, http: httptest.NewServer(svc.Handler())}
}

func (s *service) stop() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.svc.Shutdown(ctx)
}

func (s *service) get(path string) ([]byte, int, error) {
	resp, err := s.http.Client().Get(s.http.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// opSample is one submission as its client saw it, times in ms.
type opSample struct {
	upload  int
	latency float64 // POST start to report fetched
	post    float64
	wait    float64
	get     float64
	patch   float64 // generator time, off the clock
	polls   int
	traced  bool
}

type runView struct {
	ID     int64  `json:"id"`
	Status string `json:"status"`
}

func terminal(status string) bool {
	return status == "DONE" || status == "FAILED" || status == "CANCELED"
}

// submit runs one op: POST the body, poll the run to a terminal state
// (100 µs doubling to 2 ms), fetch /report, and — off the clock —
// verify it. Anything but 202 then DONE fails the op.
func (s *service) submit(body []byte, up *upload, opID int64, tr *tracer) (opSample, error) {
	var sm opSample
	client := s.http.Client()
	root := tr.begin("op", -1, opID)
	defer tr.end(root)

	start := time.Now()
	sp := tr.begin("server.post", root, opID)
	resp, err := client.Post(s.http.URL+"/v1/checkruns", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return sm, err
	}
	var view runView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	tr.end(sp)
	sm.post = ms(time.Since(start))
	if resp.StatusCode != http.StatusAccepted {
		return sm, fmt.Errorf("%s: POST answered %d", up.prog.name, resp.StatusCode)
	}
	if err != nil {
		return sm, fmt.Errorf("%s: POST reply: %w", up.prog.name, err)
	}

	sp = tr.begin("server.wait", root, opID)
	waitStart := time.Now()
	path := "/v1/checkruns/" + strconv.FormatInt(view.ID, 10)
	for backoff := 100 * time.Microsecond; !terminal(view.Status); {
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Millisecond {
			backoff = 2 * time.Millisecond
		}
		data, code, err := s.get(path)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(data, &view)
		}
		if err != nil {
			tr.end(sp)
			return sm, fmt.Errorf("%s: poll: %w", up.prog.name, err)
		}
		sm.polls++
	}
	tr.end(sp)
	sm.wait = ms(time.Since(waitStart))
	if view.Status != "DONE" {
		return sm, fmt.Errorf("%s: run ended %s", up.prog.name, view.Status)
	}

	sp = tr.begin("server.report_get", root, opID)
	getStart := time.Now()
	report, code, err := s.get(path + "/report")
	tr.end(sp)
	sm.get = ms(time.Since(getStart))
	sm.latency = ms(time.Since(start))
	if err != nil || code != http.StatusOK {
		return sm, fmt.Errorf("%s: GET report: status %d, %v", up.prog.name, code, err)
	}

	sp = tr.begin("bench.verify", root, opID)
	defer tr.end(sp)
	return sm, verifyReport(up.prog, report)
}

// serveShape is how a workload uses the service.
type serveShape struct {
	phases   int           // closed-loop phases; a traced run records spans in the even ones
	phaseOps int           // submissions per phase, or 0 for phases of length phaseDur
	phaseDur time.Duration // closed-loop time per phase when phaseOps is 0
	stamp    bool          // make every body byte-distinct so the report cache cannot hit
	random   bool          // draw uploads at random (seeded) instead of round-robin
	direct   bool          // run a direct pass over every upload before each phase
}

// serveTotals accumulates what the phases of one run measured.
type serveTotals struct {
	samples    []opSample
	issued     int64
	ops        int
	failed     int
	okEvents   float64
	wallS      float64     // closed-loop phases
	phaseRate  []float64   // per closed-loop phase, verified events per second
	directRate []float64   // per direct pass, events per second
	direct     [][]float64 // [upload] direct cost (ms) per pass
	scrapeMs   float64
	hits       float64
	misses     float64
	admitted   float64
	rejected   float64
	evicted    float64
	queueP50Ms float64
	runP50Ms   float64
}

const clients = 2

// serveRun drives one service, in its zero configuration, for the whole
// run, so its registry retains runs exactly as a user's would: two
// closed-loop clients, shape.phases phases. With a tracer, even phases
// record spans and odd ones do not; scrape reads the service's own
// counters before it stops.
func (tot *serveTotals) serveRun(ups []*upload, shape serveShape, seed int64, tracer *tracer, scrape bool) error {
	r := rand.New(rand.NewSource(seed))
	sv := startService()
	for phase := 0; phase < shape.phases; phase++ {
		tr := tracer
		if phase%2 == 1 {
			tr = nil
		}
		if shape.direct {
			if err := tot.directPass(ups, tr); err != nil {
				sv.stop()
				return err
			}
		}
		// Uploads are drawn under a lock in one seeded sequence, so which
		// bodies are submitted depends on the seed and not on which
		// client is faster. Every client gets at least one.
		var mu sync.Mutex
		issued := 0
		okBefore := tot.okEvents
		start := time.Now()
		next := func() (u int, opID int64, ok bool) {
			mu.Lock()
			defer mu.Unlock()
			if shape.phaseOps > 0 && issued == shape.phaseOps {
				return 0, 0, false
			}
			if shape.phaseOps == 0 && issued >= clients && time.Since(start) > shape.phaseDur {
				return 0, 0, false
			}
			issued++
			tot.issued++
			if shape.random {
				return r.Intn(len(ups)), tot.issued, true
			}
			return int(tot.issued) % len(ups), tot.issued, true
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Each client patches private copies, so stamping a body
				// costs sixteen bytes written, not a copy of the upload.
				mine := make([][]byte, len(ups))
				for {
					u, opID, ok := next()
					if !ok {
						return
					}
					patchStart := time.Now()
					body := ups[u].body
					if shape.stamp {
						if mine[u] == nil {
							mine[u] = append([]byte(nil), body...)
						}
						body = mine[u]
						copy(body[ups[u].stampAt:], strconv.FormatInt(stampBase+opID, 10))
					}
					patch := ms(time.Since(patchStart))
					sm, err := sv.submit(body, ups[u], opID, tr)
					sm.upload, sm.patch, sm.traced = u, patch, tr != nil
					mu.Lock()
					tot.record(ups[u], sm, err)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		tot.wallS += wall
		tot.phaseRate = append(tot.phaseRate, ratio(tot.okEvents-okBefore, wall))
	}
	if scrape {
		if err := tot.scrape(sv); err != nil {
			sv.stop()
			return err
		}
	}
	return sv.stop()
}

// record books one finished op: a failed one is counted and named on
// standard error, a good one adds its sample and its events.
func (t *serveTotals) record(up *upload, sm opSample, err error) {
	t.ops++
	if err != nil {
		fmt.Fprintf(os.Stderr, "avdbench: op %d: %v\n", t.ops, err)
		t.failed++
		return
	}
	t.samples = append(t.samples, sm)
	t.okEvents += float64(up.prog.events)
}

// directPass checks every upload in-process once per client — the same
// three calls the service makes, at the same parallelism: as many
// goroutines as the closed loop has clients, each walking all uploads
// from its own starting point, so the pass is balanced whatever the
// uploads' sizes. It is the baseline the service's slowdown is taken
// against and the decode/replay/render attribution. A run makes as many
// passes as it has phases and reports the median pass over the median
// phase. This host drifts by a quarter within minutes, so the passes
// are spread over the run and both sides of the ratio drift alike:
// serve-small's alternate with its phases (slowdown_x over ten runs:
// 4-5 % between quartiles, against 17-19 % with all passes first);
// serve-fresh's run half before the service's lifetime and half after
// it (4 % against 13-17 %), because under the 1.4 GB its registry
// retains, whether a collection fell into a pass decided what the pass
// measured (14 % alternating).
func (t *serveTotals) directPass(ups []*upload, tr *tracer) error {
	if t.direct == nil {
		t.direct = make([][]float64, len(ups))
	}
	costs := make([][]directCost, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs[c] = make([]directCost, len(ups))
			for k := range ups {
				i := (k + c*len(ups)/clients) % len(ups)
				var err error
				if costs[c][i], err = checkDirect(ups[i].prog, ups[i].body, tr, int64(-1-i)); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	var events float64
	for c, err := range errs {
		if err != nil {
			return err
		}
		for i, cost := range costs[c] {
			t.direct[i] = append(t.direct[i], cost.total())
			events += float64(ups[i].prog.events)
		}
	}
	t.directRate = append(t.directRate, ratio(events, wall))
	return nil
}

// scrape reads the service's own counters and histograms from /metrics
// and the registry's size from the run list, before the service stops.
func (t *serveTotals) scrape(sv *service) error {
	start := time.Now()
	text, code, err := sv.get("/metrics")
	t.scrapeMs = ms(time.Since(start))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d, %v", code, err)
	}
	pm, err := obs.ParseProm(bytes.NewReader(text))
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	m := pm.Samples
	t.admitted = m["avd_server_admitted_total"]
	t.hits = m["avd_server_report_cache_hits_total"]
	t.misses = m["avd_server_report_cache_misses_total"]
	for k, v := range m {
		if strings.HasPrefix(k, "avd_server_rejected_total{") && !strings.Contains(k, `"injected"`) {
			t.rejected += v
		}
	}
	t.queueP50Ms = histP50(m, "avd_run_queue_wait_seconds") * 1e3
	t.runP50Ms = histP50(m, "avd_run_duration_seconds") * 1e3

	list, code, err := sv.get("/v1/checkruns")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/checkruns: status %d, %v", code, err)
	}
	var views []runView
	if err := json.Unmarshal(list, &views); err != nil {
		return fmt.Errorf("run list: %w", err)
	}
	t.evicted = t.admitted - float64(len(views))
	return nil
}

// histP50 is the median of a Prometheus histogram, interpolated inside
// the bucket that holds it; 0 when the series is absent or empty.
func histP50(m map[string]float64, name string) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err == nil { // +Inf parses too and sorts last
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	half := m[name+"_count"] / 2
	if half == 0 {
		return 0
	}
	var lo, below float64
	for _, b := range bs {
		if b.n >= half {
			if b.n == below || math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(half-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}

// setServer fills the server and obs layer metrics from the client-side
// samples and the service's own counters.
func (o *outcome) setServer(t *serveTotals) {
	var post, wait, get, lat, overhead, executedLat []float64
	var polls, patch, latSum float64
	directMs := make([]float64, len(t.direct))
	for u, costs := range t.direct {
		directMs[u] = median(costs)
	}
	for _, sm := range t.samples {
		post = append(post, sm.post)
		wait = append(wait, sm.wait)
		get = append(get, sm.get)
		lat = append(lat, sm.latency)
		polls += float64(sm.polls)
		patch += sm.patch
		latSum += sm.latency
		// A run answered from the report cache is DONE in the POST reply
		// and skips the replay, so only polled ops have decode + replay +
		// render to subtract.
		if sm.polls > 0 {
			overhead = append(overhead, sm.latency-directMs[sm.upload])
			executedLat = append(executedLat, sm.latency)
		}
	}
	n := float64(len(t.samples))
	o.set("server.post_ms_p50", median(post))
	o.set("server.wait_ms_p50", median(wait))
	o.set("server.report_get_ms_p50", median(get))
	o.set("server.polls_per_op", ratio(polls, n))
	o.set("server.overhead_ms_p50", median(overhead))
	o.set("server.overhead_share", ratio(median(overhead), median(executedLat)))
	o.set("server.queue_wait_ms_p50", t.queueP50Ms)
	o.set("server.run_ms_p50", t.runP50Ms)
	o.set("server.cache_hit_ratio", ratio(t.hits, t.hits+t.misses))
	o.set("server.evicted_runs", t.evicted)
	o.set("server.rejected_share", ratio(t.rejected, t.admitted+t.rejected))
	o.set("obs.metrics_scrape_ms", t.scrapeMs)
	o.set("bench.generator_share", ratio(patch, latSum))
	o.note("server: %d ops, op p50 %.3f ms, direct check p50 %.3f ms", len(t.samples), median(lat), median(lat)-median(overhead))
}

// runServe measures one serve-* workload.
func runServe(name string, cfg runConfig) (*outcome, error) {
	out := newOutcome(name, cfg)
	// serve-fresh submits a fixed number of traces, cfg.size.freshRate per
	// second asked for: every run is retained by the registry and pins its
	// decoded trace, so peak_rss_mb is comparable between two commits only
	// at the same number of submissions. serve-small runs against a
	// registry that is full and evicting after its first seconds, so it
	// is measured by the clock.
	phases := cfg.size.servePhases
	shape := serveShape{phases: phases, stamp: true,
		phaseOps: max(clients, int(cfg.size.freshRate*cfg.window().Seconds())/phases)}
	if name == "serve-small" {
		shape = serveShape{phases: phases, random: true, direct: true, phaseDur: cfg.window() / time.Duration(phases)}
	}

	// Set-up: generate or record the programs, their uploads and known
	// answers, start a service and push one submission per upload (at
	// most ten) through it, so the HTTP stack and the checker are warm.
	var progs []*prog
	var ups []*upload
	var setups []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		start := time.Now()
		in, err := buildInputs(name, cfg)
		if err != nil {
			return nil, err
		}
		progs, ups, out.Inputs = in.progs, in.ups, in.digest
		warm := &serveTotals{}
		if err := warm.serveRun(ups, serveShape{phases: 1, phaseOps: min(len(ups), 10), stamp: shape.stamp}, cfg.seed, nil, false); err != nil {
			return nil, err
		}
		if warm.failed > 0 {
			return nil, fmt.Errorf("%s: %d warm-up submissions failed", name, warm.failed)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	tot := &serveTotals{}
	around := 0 // direct passes around the service's lifetime, not inside it
	if !shape.direct {
		around = phases
	}
	directPasses := func(n int) error {
		for pass := 0; pass < n; pass++ {
			if err := tot.directPass(ups, cfg.tracer); err != nil {
				return err
			}
		}
		return nil
	}
	if err := directPasses(around / 2); err != nil {
		return nil, err
	}
	out.note("set-up: peak RSS %.1f MB", vmHWM())
	endSetup()
	if err := tot.serveRun(ups, shape, cfg.seed, cfg.tracer, cfg.trace == 1); err != nil {
		return nil, err
	}
	runtime.GC() // the stopped service's registry
	if err := directPasses(around - around/2); err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = tot.ops, tot.failed
	out.Reps["phases"] = shape.phases
	out.Reps["latency_samples"] = len(tot.samples)
	out.Reps["setups"] = len(setups)
	var lat, tracedLat, plainLat []float64
	for _, sm := range tot.samples {
		lat = append(lat, sm.latency)
		if sm.traced {
			tracedLat = append(tracedLat, sm.latency)
		} else {
			plainLat = append(plainLat, sm.latency)
		}
	}

	if cfg.trace == 0 {
		out.set("setup_s", median(setups))
		out.set("events_per_s", ratio(tot.okEvents, tot.wallS))
		// What going through the long-lived service costs over calling the
		// library on the same bytes at the same parallelism: the median
		// direct pass over the median phase, so a stretch in which the host
		// gave the CPU away costs one pass or phase its number, not the run.
		out.set("slowdown_x", ratio(median(tot.directRate), median(tot.phaseRate)))
		out.note("events/s per phase %s", deciles(tot.phaseRate))
		out.note("events/s per direct pass %s", deciles(tot.directRate))
		out.set("latency_p50_ms", quantile(lat, 0.50))
		out.set("latency_p95_ms", quantile(lat, 0.95))
		// One service lifetime is one user-level run: its peak is the
		// process's, with everything the registry retained.
		out.set("peak_rss_mb", vmHWM())
		out.note("latency: %d samples, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms", len(lat), quantile(lat, 0.5), quantile(lat, 0.95), quantile(lat, 0.99))
		out.note("latency ms %s", deciles(lat))
		return out, nil
	}

	out.setServer(tot)
	out.set("bench.trace_overhead_ratio", ratio(median(tracedLat), median(plainLat)))
	if err := out.setLayers(progs, cfg); err != nil {
		return nil, err
	}
	// The live layers on this workload's programs. The generated
	// programs are tiny, so they run as one batch per rep.
	live := progs
	if name == "serve-small" {
		live = []*prog{batchProg(progs)}
	}
	one := liveRounds(live, 1, cfg.seed, rounds(cfg.size.probeReps), nil)
	two := liveRounds(live, 2, cfg.seed, rounds(cfg.size.probeReps), nil)
	out.Attempted += one.ops + two.ops
	out.Failed += one.failed + two.failed
	out.setLive(live, one, two)
	return out, nil
}
