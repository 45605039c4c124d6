package server

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	avd "github.com/taskpar/avd"
	"github.com/taskpar/avd/internal/chaos"
	"github.com/taskpar/avd/internal/obs"
)

// Config parameterizes a Service. The zero value is a sane production
// default: GOMAXPROCS shards (capped at 8), 64 queued runs per shard,
// 32 MiB uploads, 30 s default / 5 min max deadlines, 3 attempts with
// 25 ms jittered base backoff, and 4096 retained runs.
type Config struct {
	// Shards is the worker-shard count; runs are assigned by trace
	// content hash so identical uploads land on the same shard. 0 means
	// min(GOMAXPROCS, 8).
	Shards int
	// QueueDepth bounds each shard's pending-run queue; admissions
	// beyond it are rejected with 429 + Retry-After. 0 means 64.
	QueueDepth int
	// MaxBodyBytes bounds one upload's encoded size, enforced before
	// any allocation proportional to the claimed contents. 0 = 32 MiB.
	MaxBodyBytes int64
	// UploadTimeout bounds how long one upload may take to arrive, so a
	// slow (or stalled) client occupies a handler for a bounded time.
	// 0 means 10 s.
	UploadTimeout time.Duration
	// DefaultDeadline bounds a run that requested none (0 = 30 s);
	// MaxDeadline clamps client-requested deadlines (0 = 5 min).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxAttempts caps executions of one run when attempts fail
	// transiently (worker crash); 0 means 3.
	MaxAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts; 0 means 25 ms.
	RetryBackoff time.Duration
	// MemoryBudget bounds each run's analysis metadata (avd
	// Options.MemoryBudget); 0 = unlimited.
	MemoryBudget int64
	// MaxViolations caps each run's admitted violations; 0 = uncapped.
	MaxViolations int64
	// MaxRuns bounds the retained-run registry; admitting past it
	// evicts the oldest terminal runs, and if none are evictable the
	// admission is rejected. 0 means 4096.
	MaxRuns int
	// ReportCacheSize bounds the cross-run report cache: re-submitting
	// a byte-identical trace with the same analysis options completes
	// instantly with the memoized report instead of re-running the
	// analysis. 0 means 256; negative disables the cache.
	ReportCacheSize int
	// SnapshotInterval paces the periodic live-analysis frames on a
	// running run's event stream (0 = 250 ms). Frames are generated only
	// while someone is subscribed.
	SnapshotInterval time.Duration
	// WebhookURL, when set, enables violation notifications: every
	// ERROR finding of a terminal run is POSTed to this URL as JSON,
	// with jittered-backoff retry and delivery counters on /metrics.
	WebhookURL string
	// WebhookQueue bounds the pending-notification queue; deliveries
	// beyond it are dropped and counted (0 = 256).
	WebhookQueue int
	// WebhookAttempts caps delivery attempts per notification (0 = 3).
	WebhookAttempts int
	// Chaos enables deterministic fault injection in the service layer
	// (worker crashes, admission rejections); the zero value disables
	// it.
	Chaos chaos.Config
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.UploadTimeout <= 0 {
		c.UploadTimeout = 10 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 4096
	}
	if c.ReportCacheSize == 0 {
		c.ReportCacheSize = 256
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 250 * time.Millisecond
	}
	if c.WebhookQueue <= 0 {
		c.WebhookQueue = 256
	}
	if c.WebhookAttempts <= 0 {
		c.WebhookAttempts = 3
	}
	return c
}

// Metrics are the server-level gauges and counters served on the debug
// endpoint. Counters are monotone; gauges are instantaneous levels with
// high watermarks.
type Metrics struct {
	admitted       atomic.Int64
	rejectedQueue  atomic.Int64 // 429: shard queue full (incl. injected)
	rejectedBody   atomic.Int64 // 400/408/413: invalid, slow, oversized
	rejectedDrain  atomic.Int64 // 503: draining
	rejectedChaos  atomic.Int64 // injected subset of rejectedQueue
	retries        atomic.Int64
	workerPanics   atomic.Int64
	cacheHits      atomic.Int64 // admissions served from the report cache
	cacheMisses    atomic.Int64 // cacheable admissions that had to run
	done           atomic.Int64
	failed         atomic.Int64
	canceled       atomic.Int64
	inFlight       obs.Gauge
	queued         obs.Gauge // all shards combined
	perShardQueued []obs.Gauge

	// Live-stream plane: current SSE subscribers and snapshot frames
	// dropped to slow ones.
	streamSubs          obs.Gauge
	streamDroppedFrames atomic.Int64

	// Webhook delivery counters (zero unless Config.WebhookURL is set).
	webhookDelivered atomic.Int64
	webhookFailed    atomic.Int64
	webhookDropped   atomic.Int64

	// Analysis aggregates: per-run terminal report counters folded into
	// server-wide totals when a run that actually executed finishes
	// (cache hits fold nothing — no analysis ran). These mirror the
	// fields of a run's Snapshot/Report on /metrics.
	anViolations      atomic.Int64
	anDrops           atomic.Int64
	anTaskPanics      atomic.Int64
	anLocations       atomic.Int64
	anFilterHits      atomic.Int64
	anFilterMisses    atomic.Int64
	anBatchFlushes    atomic.Int64
	anBatchedAccesses atomic.Int64
	anWindowElisions  atomic.Int64

	// Run-latency histograms: time spent queued (admit to first
	// execution) and executing (first execution to terminal), in
	// nanoseconds, exposed on /metrics in seconds.
	queueWait   obs.Histogram
	runDuration obs.Histogram
}

// MetricsView is the JSON snapshot of Metrics.
type MetricsView struct {
	Admitted          int64   `json:"admitted"`
	RejectedQueueFull int64   `json:"rejected_queue_full"`
	RejectedBody      int64   `json:"rejected_body"`
	RejectedDraining  int64   `json:"rejected_draining"`
	RejectedInjected  int64   `json:"rejected_injected"`
	Retries           int64   `json:"retries"`
	WorkerPanics      int64   `json:"worker_panics"`
	Done              int64   `json:"done"`
	Failed            int64   `json:"failed"`
	Canceled          int64   `json:"canceled"`
	InFlight          int64   `json:"in_flight"`
	InFlightMax       int64   `json:"in_flight_max"`
	Queued            int64   `json:"queued"`
	QueuedMax         int64   `json:"queued_max"`
	QueuedPerShard    []int64 `json:"queued_per_shard"`
	// Report-cache gauges: hits are admissions answered from the
	// memoized report of an earlier identical run, misses are cacheable
	// admissions that had to execute, entries the current cache size.
	ReportCacheHits    int64 `json:"report_cache_hits"`
	ReportCacheMisses  int64 `json:"report_cache_misses"`
	ReportCacheEntries int64 `json:"report_cache_entries"`
	// Live-stream gauges: current SSE subscribers and snapshot frames
	// dropped to slow ones.
	StreamSubscribers   int64 `json:"stream_subscribers"`
	StreamDroppedFrames int64 `json:"stream_dropped_frames"`
	// Webhook delivery counters (zero unless a webhook is configured).
	WebhookDelivered int64 `json:"webhook_delivered"`
	WebhookFailed    int64 `json:"webhook_failed"`
	WebhookDropped   int64 `json:"webhook_dropped"`
	// Analysis aggregates: terminal-report counters of every executed
	// run folded into server totals.
	AnalysisViolations      int64 `json:"analysis_violations"`
	AnalysisDrops           int64 `json:"analysis_drops"`
	AnalysisTaskPanics      int64 `json:"analysis_task_panics"`
	AnalysisLocations       int64 `json:"analysis_locations"`
	AnalysisFilterHits      int64 `json:"analysis_filter_hits"`
	AnalysisFilterMisses    int64 `json:"analysis_filter_misses"`
	AnalysisBatchFlushes    int64 `json:"analysis_batch_flushes"`
	AnalysisBatchedAccesses int64 `json:"analysis_batched_accesses"`
	AnalysisWindowElisions  int64 `json:"analysis_window_elisions"`
}

// view snapshots the metrics.
func (m *Metrics) view() MetricsView {
	per := make([]int64, len(m.perShardQueued))
	for i := range m.perShardQueued {
		per[i] = m.perShardQueued[i].Load()
	}
	return MetricsView{
		Admitted:          m.admitted.Load(),
		RejectedQueueFull: m.rejectedQueue.Load(),
		RejectedBody:      m.rejectedBody.Load(),
		RejectedDraining:  m.rejectedDrain.Load(),
		RejectedInjected:  m.rejectedChaos.Load(),
		Retries:           m.retries.Load(),
		WorkerPanics:      m.workerPanics.Load(),
		Done:              m.done.Load(),
		Failed:            m.failed.Load(),
		Canceled:          m.canceled.Load(),
		InFlight:          m.inFlight.Load(),
		InFlightMax:       m.inFlight.Max(),
		Queued:            m.queued.Load(),
		QueuedMax:         m.queued.Max(),
		QueuedPerShard:    per,
		ReportCacheHits:   m.cacheHits.Load(),
		ReportCacheMisses: m.cacheMisses.Load(),

		StreamSubscribers:   m.streamSubs.Load(),
		StreamDroppedFrames: m.streamDroppedFrames.Load(),

		WebhookDelivered: m.webhookDelivered.Load(),
		WebhookFailed:    m.webhookFailed.Load(),
		WebhookDropped:   m.webhookDropped.Load(),

		AnalysisViolations:      m.anViolations.Load(),
		AnalysisDrops:           m.anDrops.Load(),
		AnalysisTaskPanics:      m.anTaskPanics.Load(),
		AnalysisLocations:       m.anLocations.Load(),
		AnalysisFilterHits:      m.anFilterHits.Load(),
		AnalysisFilterMisses:    m.anFilterMisses.Load(),
		AnalysisBatchFlushes:    m.anBatchFlushes.Load(),
		AnalysisBatchedAccesses: m.anBatchedAccesses.Load(),
		AnalysisWindowElisions:  m.anWindowElisions.Load(),
	}
}

// Service is the trace-checking service: a bounded run registry, one
// bounded queue plus worker goroutine per shard, and the lifecycle
// plumbing between them. Create with New, serve its Handler, and
// Shutdown to drain.
type Service struct {
	cfg   Config
	plane *chaos.Plane
	cache *reportCache

	mu     sync.Mutex
	runs   map[int64]*Run
	order  []int64 // admission order, for listing and eviction
	nextID int64
	closed bool // draining: admission refused, queues closed

	shards  []chan *Run
	wg      sync.WaitGroup
	metrics Metrics

	// registry names every metric for the Prometheus /metrics endpoint.
	registry *obs.Registry
	// webhook delivers per-finding notifications (nil unless configured).
	webhook *webhookSender

	// drainCancel cancels every in-flight run when the drain deadline
	// passes.
	draining atomic.Bool
}

// New creates a service and starts its shard workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		plane:  chaos.New(cfg.Chaos),
		cache:  newReportCache(cfg.ReportCacheSize),
		runs:   make(map[int64]*Run),
		shards: make([]chan *Run, cfg.Shards),
	}
	s.metrics.perShardQueued = make([]obs.Gauge, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = make(chan *Run, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(i)
	}
	s.registry = s.buildRegistry()
	if cfg.WebhookURL != "" {
		s.webhook = newWebhookSender(cfg, &s.metrics)
	}
	return s
}

// newHub creates a run's stream hub, folding its drop and subscriber
// accounting into the service metrics.
func (s *Service) newHub() *streamHub {
	return newStreamHub(&s.metrics.streamDroppedFrames, &s.metrics.streamSubs)
}

// Metrics returns the current server-level metrics snapshot.
func (s *Service) Metrics() MetricsView {
	v := s.metrics.view()
	v.ReportCacheEntries = int64(s.cache.size())
	return v
}

// ChaosStats returns the injected-fault counters of the service's chaos
// plane (zero when chaos is not configured).
func (s *Service) ChaosStats() chaos.PlaneStats { return s.plane.Stats() }

// shardOf assigns a run to a shard by hashing the encoded trace bytes,
// so identical traces deterministically land on the same shard and its
// worker's metadata locality.
func (s *Service) shardOf(body []byte) int {
	h := fnv.New32a()
	h.Write(body)
	return int(h.Sum32() % uint32(len(s.shards)))
}

// AdmitError is the typed admission refusal: Status is the HTTP status
// the handler maps it to, RetryAfter a client backoff hint (nonzero for
// retryable refusals).
type AdmitError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *AdmitError) Error() string { return e.Msg }

// Admit registers and enqueues a new run for the already-decoded trace
// (body is the encoded upload, used for shard hashing and accounting).
// It never blocks: a full shard queue, a saturated registry, a draining
// service, or an injected chaos rejection refuse the admission with an
// *AdmitError carrying the client-facing status and Retry-After hint.
func (s *Service) Admit(tr *avd.Trace, body []byte, opts RunOptions) (*Run, error) {
	return s.AdmitLint(tr, body, opts, nil)
}

// AdmitLint is Admit with staticavd candidate messages attached: the
// run's dynamic findings that confirm a compile-time candidate are
// annotated with it. Lint-carrying runs bypass the report cache both
// ways — their findings embed upload-specific annotations that must not
// leak into (or be served from) the trace-keyed cache.
func (s *Service) AdmitLint(tr *avd.Trace, body []byte, opts RunOptions, lint []string) (*Run, error) {
	if _, ok := opts.checkerKind(); !ok {
		return nil, &AdmitError{Status: 400, Msg: fmt.Sprintf("unknown checker %q", opts.Checker)}
	}
	if opts.Deadline <= 0 || opts.Deadline > s.cfg.MaxDeadline {
		if opts.Deadline > s.cfg.MaxDeadline {
			opts.Deadline = s.cfg.MaxDeadline
		} else {
			opts.Deadline = s.cfg.DefaultDeadline
		}
	}
	if s.plane.RejectAdmit() {
		s.metrics.rejectedChaos.Add(1)
		s.metrics.rejectedQueue.Add(1)
		return nil, &AdmitError{Status: 429, Msg: "queue overflow (injected)", RetryAfter: time.Second}
	}
	shard := s.shardOf(body)
	// The cache probe runs after the chaos draw so fault-injection
	// decision streams see the same admission ordinals whether or not
	// earlier identical traces were cached.
	cacheable := s.cfg.ReportCacheSize > 0 && len(lint) == 0
	var key cacheKey
	if cacheable {
		key = keyFor(body, opts)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.metrics.rejectedDrain.Add(1)
		return nil, &AdmitError{Status: 503, Msg: "service draining", RetryAfter: 5 * time.Second}
	}
	if len(s.runs) >= s.cfg.MaxRuns && !s.evictLocked() {
		s.mu.Unlock()
		s.metrics.rejectedQueue.Add(1)
		return nil, &AdmitError{Status: 429, Msg: "run registry full", RetryAfter: time.Second}
	}
	if cacheable {
		if e, ok := s.cache.get(key); ok {
			// An identical trace with identical options already completed:
			// register the run directly in its terminal state, findings
			// and report copied from the memoized analysis. It never
			// touches a shard queue.
			s.nextID++
			now := time.Now()
			run := &Run{
				id:       s.nextID,
				shard:    shard,
				status:   StatusDone,
				tr:       tr,
				traceSz:  int64(len(body)),
				opts:     opts,
				created:  now,
				started:  now,
				finished: now,
				report:   e.report,
				results:  append([]Result(nil), e.results...),
				hub:      s.newHub(),
			}
			s.runs[run.id] = run
			s.order = append(s.order, run.id)
			s.mu.Unlock()
			s.metrics.admitted.Add(1)
			s.metrics.cacheHits.Add(1)
			s.metrics.done.Add(1)
			// The stream of a cache-served run replays the memoized
			// outcome: violations with their triple identity straight from
			// the report (so reduction still matches /report), then the
			// remaining findings and the terminal transition.
			run.hub.publish(StreamEvent{Kind: EventState, Status: StatusSubmitted})
			publishReportViolations(run.hub, run.report)
			publishResults(run.hub, run.results, true)
			run.hub.publish(StreamEvent{Kind: EventState, Status: StatusDone})
			run.hub.close()
			s.notifyFindings(run, run.results)
			return run, nil
		}
	}
	s.nextID++
	run := &Run{
		id:      s.nextID,
		shard:   shard,
		status:  StatusSubmitted,
		tr:      tr,
		traceSz: int64(len(body)),
		opts:    opts,
		created: time.Now(),
		ckey:    key,
		cacheOK: cacheable,
		hub:     s.newHub(),
		lint:    lint,
	}
	// The SUBMITTED frame goes out before the run is queued: once it is
	// on the shard channel a worker may publish RUNNING at any moment.
	// The hub has no subscriber yet, so a rejected run's frame is simply
	// dropped with it.
	run.hub.publish(StreamEvent{Kind: EventState, Status: StatusSubmitted})
	// Enqueue under the registry lock so drain's queue close cannot race
	// the send; the channel send is non-blocking either way.
	select {
	case s.shards[shard] <- run:
	default:
		s.mu.Unlock()
		s.metrics.rejectedQueue.Add(1)
		return nil, &AdmitError{Status: 429, Msg: fmt.Sprintf("shard %d queue full", shard), RetryAfter: time.Second}
	}
	s.runs[run.id] = run
	s.order = append(s.order, run.id)
	s.mu.Unlock()
	s.metrics.admitted.Add(1)
	if cacheable {
		s.metrics.cacheMisses.Add(1)
	}
	s.metrics.queued.Add(1)
	s.metrics.perShardQueued[shard].Add(1)
	return run, nil
}

// evictLocked removes the oldest terminal runs to make room for one
// admission; it reports whether space was freed. Active runs are never
// evicted, so a registry full of live work refuses instead.
func (s *Service) evictLocked() bool {
	for i, id := range s.order {
		r := s.runs[id]
		if r == nil || r.Status().Terminal() {
			s.order = append(s.order[:i], s.order[i+1:]...)
			delete(s.runs, id)
			return true
		}
	}
	return false
}

// Get returns a run by ID.
func (s *Service) Get(id int64) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Runs lists the registered runs in admission order.
func (s *Service) Runs() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, 0, len(s.order))
	for _, id := range s.order {
		if r := s.runs[id]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Cancel requests cancellation of a run: a queued run turns CANCELED
// immediately (its worker will skip it), a running run has its context
// canceled and turns CANCELED when the replay unwinds. Terminal runs
// are left untouched. The returned status is the run's state after the
// request.
func (s *Service) Cancel(id int64) (Status, bool) {
	r, ok := s.Get(id)
	if !ok {
		return "", false
	}
	r.mu.Lock()
	switch r.status {
	case StatusSubmitted:
		r.canceled = true
		r.status = StatusCanceled
		r.finished = time.Now()
		r.results = []Result{{Status: ResultWarn, Code: CodePartial, Title: "canceled before start"}}
		s.metrics.canceled.Add(1)
		publishResults(r.hub, r.results, false)
		r.hub.publish(StreamEvent{Kind: EventState, Status: StatusCanceled})
		r.hub.close()
	case StatusRunning:
		if r.cancel != nil {
			r.cancel()
		}
	}
	st := r.status
	r.mu.Unlock()
	return st, true
}
