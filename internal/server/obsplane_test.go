package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/obs"
	"github.com/taskpar/avd/internal/server"
	"github.com/taskpar/avd/internal/trace"
)

// streamReduced consumes a run's SSE stream to completion and reduces
// it to report form. The GET blocks until the run is terminal and the
// durable log drained, so calling it on a live run exercises the
// streaming path end to end.
func streamReduced(t *testing.T, ts *httptest.Server, id int64) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/checkruns/%d/events", ts.URL, id))
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	out, err := server.ReduceStream(resp.Body)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	return string(out)
}

// TestStreamEquivalence is the streaming acceptance anchor: subscribing
// before the run executes and reducing the live SSE stream must yield
// exactly the bytes of the terminal GET /report.
func TestStreamEquivalence(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{})

	v, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	// Subscribe immediately — most findings arrive live, not replayed.
	reduced := streamReduced(t, ts, v.ID)

	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("run finished %s", final.Status)
	}
	_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v.ID))
	if reduced != report {
		t.Fatalf("reduced stream differs from /report:\n--- stream ---\n%s--- report ---\n%s", reduced, report)
	}
	if report == "" {
		t.Fatalf("seed-4 report empty; equivalence test is vacuous")
	}

	// A late subscriber replays the same durable log to the same bytes.
	if late := streamReduced(t, ts, v.ID); late != report {
		t.Fatalf("late-subscriber reduction differs:\n%s\nvs\n%s", late, report)
	}
}

// TestStreamEquivalenceAcrossRetries pins the reset protocol: attempts
// that crash mid-run stream findings that a retry then invalidates, and
// the reduction still matches the terminal report exactly.
func TestStreamEquivalenceAcrossRetries(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{
		Shards:       1,
		MaxAttempts:  100,
		RetryBackoff: time.Millisecond,
		Chaos:        chaos.Config{Seed: 7, WorkerCrashProb: 0.6},
	})

	v, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	reduced := streamReduced(t, ts, v.ID)
	final := poll(t, ts, v.ID, 20*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("run finished %s (err %q), want DONE after retries", final.Status, final.Error)
	}
	if final.Attempts < 2 {
		t.Skipf("chaos produced no crash before success (attempts=%d); retry path not exercised", final.Attempts)
	}
	_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v.ID))
	if reduced != report {
		t.Fatalf("reduction across %d attempts differs from /report:\n--- stream ---\n%s--- report ---\n%s",
			final.Attempts, reduced, report)
	}
}

// TestStreamCrashToFailure: when every attempt crashes, the stream must
// end with a reset (discarding crashed-attempt findings) and reduce to
// the empty report the FAILED run serves.
func TestStreamCrashToFailure(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{
		Shards:       1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Chaos:        chaosAllCrash(),
	})
	v, _ := submit(t, ts, body, "")
	reduced := streamReduced(t, ts, v.ID)
	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Status != server.StatusFailed {
		t.Fatalf("run finished %s, want FAILED", final.Status)
	}
	_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v.ID))
	if reduced != report {
		t.Fatalf("failed-run reduction %q differs from /report %q", reduced, report)
	}
}

// TestStreamCacheHit: a cache-hit admission never executes, yet its
// event stream must synthesize the same findings and reduce to the
// same report bytes as the original run.
func TestStreamCacheHit(t *testing.T) {
	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{ReportCacheSize: 8})

	v1, _ := submit(t, ts, body, "")
	poll(t, ts, v1.ID, 10*time.Second)
	_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v1.ID))

	v2, resp := submit(t, ts, body, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	if m := svc.Metrics(); m.ReportCacheHits != 1 {
		t.Fatalf("second admission was not a cache hit: %+v", m)
	}
	if reduced := streamReduced(t, ts, v2.ID); reduced != report {
		t.Fatalf("cache-hit reduction differs from original report:\n%s\nvs\n%s", reduced, report)
	}
}

// TestStreamCanceledQueued: canceling a queued run closes its stream
// with the canceled findings; the reduction (no violations) matches the
// empty /report.
func TestStreamCanceledQueued(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{
		Shards:       1,
		QueueDepth:   4,
		MaxAttempts:  50,
		RetryBackoff: 200 * time.Millisecond,
		Chaos:        chaosAllCrash(),
	})
	v1, _ := submit(t, ts, body, "")
	waitStatus(t, ts, v1.ID, server.StatusRunning, 5*time.Second)
	v2, _ := submit(t, ts, body, "") // parked behind v1

	done := make(chan string, 1)
	go func() { done <- streamReduced(t, ts, v2.ID) }()
	time.Sleep(20 * time.Millisecond) // let the subscriber attach while queued

	resp, err := http.Post(fmt.Sprintf("%s/v1/checkruns/%d/cancel", ts.URL, v2.ID), "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if got := poll(t, ts, v2.ID, 5*time.Second); got.Status != server.StatusCanceled {
		t.Fatalf("queued run canceled to %s", got.Status)
	}
	select {
	case reduced := <-done:
		_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v2.ID))
		if reduced != report {
			t.Fatalf("canceled reduction %q differs from /report %q", reduced, report)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("canceled run's stream never terminated")
	}
}

// TestStreamStateTransitions decodes the raw SSE frames of a completed
// run and pins the event protocol: state events bracket the run,
// durable events carry contiguous ids, and violation findings carry
// their triple identity.
func TestStreamStateTransitions(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{})
	v, _ := submit(t, ts, body, "")
	poll(t, ts, v.ID, 10*time.Second)

	resp, err := http.Get(fmt.Sprintf("%s/v1/checkruns/%d/events", ts.URL, v.ID))
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	var states []server.Status
	var findings int
	err = server.DecodeSSE(resp.Body, func(event string, data []byte) error {
		var ev server.StreamEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("bad payload %q: %w", data, err)
		}
		switch event {
		case server.EventState:
			states = append(states, ev.Status)
		case server.EventFinding:
			findings++
			if ev.Finding == nil {
				return fmt.Errorf("finding event without payload")
			}
			if ev.Finding.Code == server.CodeViolation && ev.Finding.Pattern == "" {
				return fmt.Errorf("violation finding lacks identity: %+v", ev.Finding)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(states) < 3 || states[0] != server.StatusSubmitted || states[len(states)-1] != server.StatusDone {
		t.Fatalf("state sequence %v, want SUBMITTED ... DONE", states)
	}
	sawRunning := false
	for _, st := range states {
		if st == server.StatusRunning {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Fatalf("no RUNNING transition in %v", states)
	}
	if findings == 0 {
		t.Fatalf("no finding events on a violating run")
	}
}

// TestMetricsEndpoint is the exposition contract: /metrics must parse
// under the validating parser, carry every Snapshot counter family, and
// agree with the JSON metrics view and the summed run reports — the
// snapshot-vs-metrics parity check.
func TestMetricsEndpoint(t *testing.T) {
	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{ReportCacheSize: 8})

	var wantViolations int64
	const runs = 3
	for i := 0; i < runs; i++ {
		v, resp := submit(t, ts, body, "")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		final := poll(t, ts, v.ID, 10*time.Second)
		if final.Status != server.StatusDone {
			t.Fatalf("run %d finished %s", i, final.Status)
		}
		// Cache hits never execute, so they fold nothing into the
		// analysis aggregates.
		if i == 0 {
			wantViolations = final.Violations
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	pm, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}

	m := svc.Metrics()
	// Every counter of the metrics snapshot must appear as a family and
	// agree with the JSON view.
	checks := []struct {
		sample string
		want   int64
	}{
		{`avd_server_admitted_total`, m.Admitted},
		{`avd_server_rejected_total{reason="queue_full"}`, m.RejectedQueueFull},
		{`avd_server_rejected_total{reason="body"}`, m.RejectedBody},
		{`avd_server_rejected_total{reason="draining"}`, m.RejectedDraining},
		{`avd_server_rejected_total{reason="injected"}`, m.RejectedInjected},
		{`avd_server_runs_total{status="done"}`, m.Done},
		{`avd_server_runs_total{status="failed"}`, m.Failed},
		{`avd_server_runs_total{status="canceled"}`, m.Canceled},
		{`avd_server_retries_total`, m.Retries},
		{`avd_server_worker_panics_total`, m.WorkerPanics},
		{`avd_server_report_cache_hits_total`, m.ReportCacheHits},
		{`avd_server_report_cache_misses_total`, m.ReportCacheMisses},
		{`avd_server_report_cache_entries`, m.ReportCacheEntries},
		{`avd_server_in_flight`, m.InFlight},
		{`avd_server_in_flight_max`, m.InFlightMax},
		{`avd_server_queued`, m.Queued},
		{`avd_server_queued_max`, m.QueuedMax},
		{`avd_stream_subscribers`, m.StreamSubscribers},
		{`avd_stream_dropped_frames_total`, m.StreamDroppedFrames},
		{`avd_webhook_delivered_total`, m.WebhookDelivered},
		{`avd_webhook_failed_total`, m.WebhookFailed},
		{`avd_webhook_dropped_total`, m.WebhookDropped},
		{`avd_analysis_violations_total`, m.AnalysisViolations},
		{`avd_analysis_drops_total`, m.AnalysisDrops},
		{`avd_analysis_task_panics_total`, m.AnalysisTaskPanics},
		{`avd_analysis_locations_total`, m.AnalysisLocations},
		{`avd_analysis_filter_hits_total`, m.AnalysisFilterHits},
		{`avd_analysis_filter_misses_total`, m.AnalysisFilterMisses},
		{`avd_analysis_batch_flushes_total`, m.AnalysisBatchFlushes},
		{`avd_analysis_batched_accesses_total`, m.AnalysisBatchedAccesses},
		{`avd_analysis_window_elisions_total`, m.AnalysisWindowElisions},
	}
	for _, c := range checks {
		got, ok := pm.Samples[c.sample]
		if !ok {
			t.Errorf("exposition missing sample %s", c.sample)
			continue
		}
		if int64(got) != c.want {
			t.Errorf("%s = %v, exposition disagrees with snapshot %d", c.sample, got, c.want)
		}
	}
	for i := range m.QueuedPerShard {
		if _, ok := pm.Samples[fmt.Sprintf(`avd_server_shard_queue_depth{shard="%d"}`, i)]; !ok {
			t.Errorf("no shard queue depth sample for shard %d", i)
		}
	}

	// Parity with the summed run reports: only executed runs fold in.
	if m.ReportCacheHits != runs-1 {
		t.Fatalf("expected %d cache hits, got %d", runs-1, m.ReportCacheHits)
	}
	if m.AnalysisViolations != wantViolations {
		t.Fatalf("analysis_violations %d, executed-run sum %d", m.AnalysisViolations, wantViolations)
	}

	// Histograms: one queue wait and one run duration per executed run.
	for _, h := range []string{"avd_run_queue_wait_seconds", "avd_run_duration_seconds"} {
		if typ := pm.Types[h]; typ != "histogram" {
			t.Fatalf("%s type %q, want histogram", h, typ)
		}
		if got := pm.Samples[h+"_count"]; int64(got) != 1 {
			t.Errorf("%s_count = %v, want 1 (one executed run)", h, got)
		}
	}
}

// debugKeys walks one JSON object literal and returns its immediate
// member names in encounter order.
func debugKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		t.Fatalf("not an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestDebugJSONSchema pins the /debug/avd document shape: top-level and
// metrics member order is deterministic (struct order, not map order),
// so dashboards and diffs see a stable schema.
func TestDebugJSONSchema(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{})
	v, _ := submit(t, ts, body, "")
	poll(t, ts, v.ID, 10*time.Second)

	_, out := getBody(t, ts.URL+"/debug/avd")
	top := debugKeys(t, []byte(out))
	if want := []string{"metrics", "runs"}; fmt.Sprint(top) != fmt.Sprint(want) {
		t.Fatalf("top-level keys %v, want %v", top, want)
	}

	var doc struct {
		Metrics json.RawMessage `json:"metrics"`
		Runs    []json.RawMessage
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	mkeys := debugKeys(t, doc.Metrics)
	want := []string{
		"admitted", "rejected_queue_full", "rejected_body", "rejected_draining",
		"rejected_injected", "retries", "worker_panics", "done", "failed",
		"canceled", "in_flight", "in_flight_max", "queued", "queued_max",
		"queued_per_shard", "report_cache_hits", "report_cache_misses",
		"report_cache_entries", "stream_subscribers", "stream_dropped_frames",
		"webhook_delivered", "webhook_failed", "webhook_dropped",
		"analysis_violations", "analysis_drops", "analysis_task_panics",
		"analysis_locations", "analysis_filter_hits", "analysis_filter_misses",
		"analysis_batch_flushes", "analysis_batched_accesses", "analysis_window_elisions",
	}
	if fmt.Sprint(mkeys) != fmt.Sprint(want) {
		t.Fatalf("metrics keys changed:\n got %v\nwant %v\n(update this pin deliberately when extending MetricsView)", mkeys, want)
	}

	// Two fetches serialize identically modulo volatile values — the
	// key sequence must repeat exactly.
	_, out2 := getBody(t, ts.URL+"/debug/avd")
	if fmt.Sprint(debugKeys(t, []byte(out2))) != fmt.Sprint(top) {
		t.Fatalf("key order not deterministic across fetches")
	}
}

// TestWebhookDelivery covers the fan-out satellite: every ERROR finding
// is POSTed to the webhook with run identity, transient 5xx responses
// are retried, and the delivered counter lands on /metrics.
func TestWebhookDelivery(t *testing.T) {
	var mu atomic.Int64
	var payloads atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	type seen struct {
		RunID   int64         `json:"run_id"`
		Status  server.Status `json:"status"`
		Finding server.Result `json:"finding"`
	}
	var first atomic.Pointer[seen]
	wh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.CompareAndSwap(true, false) {
			// One transient failure: the sender must retry it.
			mu.Add(1)
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		var p seen
		if err := json.NewDecoder(r.Body).Decode(&p); err == nil {
			first.CompareAndSwap(nil, &p)
		}
		payloads.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer wh.Close()

	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{WebhookURL: wh.URL})
	v, _ := submit(t, ts, body, "")
	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Violations == 0 {
		t.Fatalf("no violations; webhook test is vacuous")
	}

	deadline := time.Now().Add(5 * time.Second)
	for payloads.Load() < final.Violations && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := payloads.Load(); got != final.Violations {
		t.Fatalf("webhook received %d payloads, want %d", got, final.Violations)
	}
	if mu.Load() != 1 {
		t.Fatalf("flaky response was hit %d times, want exactly 1", mu.Load())
	}
	p := first.Load()
	if p == nil || p.RunID != v.ID || p.Status != server.StatusDone || p.Finding.Code != server.CodeViolation {
		t.Fatalf("webhook payload malformed: %+v", p)
	}
	// The sender counts a delivery only after it has read the receiver's
	// response, so the last increment can trail the last payload.
	for svc.Metrics().WebhookDelivered < final.Violations && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m := svc.Metrics(); m.WebhookDelivered != final.Violations || m.WebhookFailed != 0 {
		t.Fatalf("webhook counters: %+v", m)
	}
}

// TestWebhookFailure: a webhook that always 500s exhausts its attempts
// and lands in the failed counter — without stalling the run pipeline.
func TestWebhookFailure(t *testing.T) {
	wh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer wh.Close()

	_, body := genTrace(t, 4)
	svc, ts := testServer(t, server.Config{WebhookURL: wh.URL, WebhookAttempts: 2})
	v, _ := submit(t, ts, body, "")
	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("run finished %s despite webhook outage", final.Status)
	}

	deadline := time.Now().Add(5 * time.Second)
	for svc.Metrics().WebhookFailed < final.Violations && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m := svc.Metrics(); m.WebhookFailed != final.Violations || m.WebhookDelivered != 0 {
		t.Fatalf("webhook failure counters: %+v", m)
	}
}

// TestValidateWebhookURL pins the flag validator.
func TestValidateWebhookURL(t *testing.T) {
	if err := server.ValidateWebhookURL(""); err != nil {
		t.Fatalf("empty URL must be allowed (disabled): %v", err)
	}
	if err := server.ValidateWebhookURL("http://example.com/hook"); err != nil {
		t.Fatalf("good URL rejected: %v", err)
	}
	for _, bad := range []string{"ftp://example.com", "://nope", "localhost:8080"} {
		if err := server.ValidateWebhookURL(bad); err == nil {
			t.Errorf("URL %q accepted", bad)
		}
	}
}

// multipartBody builds a trace+lint multipart upload.
func multipartBody(t *testing.T, traceBody []byte, lint any) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("trace", "trace.json")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(traceBody)
	if lint != nil {
		lw, err := mw.CreateFormFile("lint", "lint.json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(lw).Encode(lint); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

// TestMultipartLintUpload covers the staticavd satellite: a lint-JSON
// part uploaded next to the trace annotates the dynamic findings that
// confirm static candidates, and such runs bypass the report cache.
func TestMultipartLintUpload(t *testing.T) {
	tr, body := genTrace(t, 4)
	rep, err := avd.ReplayTrace(tr, avd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("seed-4 trace has no violations")
	}
	kind := rep.Violations[0].Kind()
	lint := []string{
		"x.go:10:2: unserializable interleaving (pattern " + kind + ") on shared counter",
		"y.go:4:1: candidate for a pattern that never fires Z-Z-Z",
	}

	svc, ts := testServer(t, server.Config{ReportCacheSize: 8})
	ct, mp := multipartBody(t, body, lint)
	resp, err := http.Post(ts.URL+"/v1/checkruns", ct, bytes.NewReader(mp))
	if err != nil {
		t.Fatal(err)
	}
	var v server.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("multipart submit: %d", resp.StatusCode)
	}
	if v.StaticCandidates != len(lint) {
		t.Fatalf("static_candidates %d, want %d", v.StaticCandidates, len(lint))
	}

	final := poll(t, ts, v.ID, 10*time.Second)
	if final.Status != server.StatusDone {
		t.Fatalf("lint run finished %s", final.Status)
	}
	confirmed := 0
	for _, res := range final.Results {
		if res.Code != server.CodeViolation {
			continue
		}
		if strings.Contains(res.Content, "confirms static candidate") {
			confirmed++
			if !strings.Contains(res.Content, "shared counter") {
				t.Fatalf("annotation lost the candidate message: %q", res.Content)
			}
			if strings.Contains(res.Content, "Z-Z-Z") {
				t.Fatalf("non-matching candidate annotated: %q", res.Content)
			}
		}
	}
	if confirmed == 0 {
		t.Fatalf("no finding confirmed the %s candidate: %+v", kind, final.Results)
	}

	// Lint-carrying runs must not be served from (or populate) the
	// report cache: annotations are per-upload, the cache is per-trace.
	ct2, mp2 := multipartBody(t, body, lint)
	resp2, err := http.Post(ts.URL+"/v1/checkruns", ct2, bytes.NewReader(mp2))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if m := svc.Metrics(); m.ReportCacheHits != 0 {
		t.Fatalf("lint run hit the report cache: %+v", m)
	}

	// The canonical report stays pristine — annotations live only in
	// the findings.
	_, report := getBody(t, fmt.Sprintf("%s/v1/checkruns/%d/report", ts.URL, v.ID))
	if strings.Contains(report, "confirms static candidate") {
		t.Fatalf("lint annotation leaked into the canonical report")
	}

	// A multipart upload without the trace part is rejected cleanly.
	ct3, mp3 := multipartBody(t, nil, lint)
	mp3 = bytes.Replace(mp3, []byte(`name="trace"`), []byte(`name="other"`), 1)
	resp3, err := http.Post(ts.URL+"/v1/checkruns", ct3, bytes.NewReader(mp3))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("traceless multipart: %d, want 400", resp3.StatusCode)
	}
}

// TestSpansEndpoint pins the run-lifecycle span export: raw spans carry
// ordered timestamps, and the rendered form is a balanced Perfetto
// trace with the server process and per-shard tracks.
func TestSpansEndpoint(t *testing.T) {
	_, body := genTrace(t, 4)
	_, ts := testServer(t, server.Config{})
	v, _ := submit(t, ts, body, "")
	poll(t, ts, v.ID, 10*time.Second)

	_, raw := getBody(t, ts.URL+"/debug/avd/spans?raw=1")
	var spans []trace.RunSpan
	if err := json.Unmarshal([]byte(raw), &spans); err != nil {
		t.Fatalf("raw spans: %v", err)
	}
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.ID != v.ID || sp.Status != string(server.StatusDone) {
		t.Fatalf("span identity: %+v", sp)
	}
	if !(sp.Created > 0 && sp.Created <= sp.Started && sp.Started <= sp.Finished) {
		t.Fatalf("span timestamps not ordered: %+v", sp)
	}

	code, rendered := getBody(t, ts.URL+"/debug/avd/spans")
	if code != http.StatusOK {
		t.Fatalf("spans status %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Pid  int32  `json:"pid"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(rendered), &doc); err != nil {
		t.Fatalf("rendered spans: %v", err)
	}
	var b, e, ab, ae, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			b++
		case "E":
			e++
		case "b":
			ab++
		case "e":
			ae++
		case "i":
			inst++
		}
	}
	if b != e || ab != ae {
		t.Fatalf("unbalanced spans: B=%d E=%d b=%d e=%d", b, e, ab, ae)
	}
	if b != 1 || ab != 1 || inst != 1 {
		t.Fatalf("span counts: B=%d b=%d i=%d, want 1 each for one DONE run", b, ab, inst)
	}
	if doc.OtherData["terminal"].(float64) != 1 {
		t.Fatalf("otherData: %+v", doc.OtherData)
	}
}
