package server

import (
	"net/http"
	"strconv"

	"github.com/taskpar/avd/internal/obs"
)

// buildRegistry names every server counter, gauge, and histogram for
// the Prometheus /metrics endpoint. Series read the live atomics
// through closures, so registration happens once and scrapes cost a
// load per sample. The name layout:
//
//	avd_server_*    service lifecycle (admission, rejection, runs)
//	avd_stream_*    live event-stream plane
//	avd_webhook_*   notification deliveries
//	avd_analysis_*  per-run analysis counters folded into totals —
//	                the paper's Table 1 measurements as a time series
//	avd_run_*       latency histograms (seconds)
func (s *Service) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	m := &s.metrics

	r.Counter("avd_server_admitted_total", "Check runs admitted.", m.admitted.Load)
	r.LabeledCounter("avd_server_rejected_total", "Admissions refused, by reason.", "reason", "queue_full", m.rejectedQueue.Load)
	r.LabeledCounter("avd_server_rejected_total", "Admissions refused, by reason.", "reason", "body", m.rejectedBody.Load)
	r.LabeledCounter("avd_server_rejected_total", "Admissions refused, by reason.", "reason", "draining", m.rejectedDrain.Load)
	r.LabeledCounter("avd_server_rejected_total", "Admissions refused, by reason.", "reason", "injected", m.rejectedChaos.Load)
	r.LabeledCounter("avd_server_runs_total", "Terminal runs, by outcome.", "status", "done", m.done.Load)
	r.LabeledCounter("avd_server_runs_total", "Terminal runs, by outcome.", "status", "failed", m.failed.Load)
	r.LabeledCounter("avd_server_runs_total", "Terminal runs, by outcome.", "status", "canceled", m.canceled.Load)
	r.Counter("avd_server_retries_total", "Run attempts retried after transient worker crashes.", m.retries.Load)
	r.Counter("avd_server_worker_panics_total", "Worker panics contained to their run.", m.workerPanics.Load)
	r.Counter("avd_server_report_cache_hits_total", "Admissions answered from the cross-run report cache.", m.cacheHits.Load)
	r.Counter("avd_server_report_cache_misses_total", "Cacheable admissions that had to execute.", m.cacheMisses.Load)
	r.Gauge("avd_server_report_cache_entries", "Memoized reports currently cached.", func() int64 { return int64(s.cache.size()) })

	r.Gauge("avd_server_in_flight", "Runs executing now.", m.inFlight.Load)
	r.Gauge("avd_server_in_flight_max", "High watermark of concurrently executing runs.", m.inFlight.Max)
	r.Gauge("avd_server_queued", "Runs waiting in shard queues.", m.queued.Load)
	r.Gauge("avd_server_queued_max", "High watermark of queued runs.", m.queued.Max)
	for i := range m.perShardQueued {
		g := &m.perShardQueued[i]
		r.LabeledGauge("avd_server_shard_queue_depth", "Queued runs per shard.", "shard", strconv.Itoa(i), g.Load)
	}

	r.Gauge("avd_stream_subscribers", "Live SSE subscribers across all runs.", m.streamSubs.Load)
	r.Counter("avd_stream_dropped_frames_total", "Snapshot frames dropped to slow subscribers.", m.streamDroppedFrames.Load)

	r.Counter("avd_webhook_delivered_total", "Webhook notifications delivered.", m.webhookDelivered.Load)
	r.Counter("avd_webhook_failed_total", "Webhook notifications that exhausted their delivery attempts.", m.webhookFailed.Load)
	r.Counter("avd_webhook_dropped_total", "Webhook notifications dropped on queue overflow.", m.webhookDropped.Load)

	r.Counter("avd_analysis_violations_total", "Distinct atomicity violations across executed runs.", m.anViolations.Load)
	r.Counter("avd_analysis_drops_total", "Analysis work shed under memory budgets and caps.", m.anDrops.Load)
	r.Counter("avd_analysis_task_panics_total", "Recovered task panics across executed runs.", m.anTaskPanics.Load)
	r.Counter("avd_analysis_locations_total", "Unique instrumented locations across executed runs.", m.anLocations.Load)
	r.Counter("avd_analysis_filter_hits_total", "Accesses the batch deduplicator skipped (0 unless runs use Batch).", m.anFilterHits.Load)
	r.Counter("avd_analysis_filter_misses_total", "Batched accesses that ran the full checker dispatch (0 unless runs use Batch).", m.anFilterMisses.Load)
	r.Counter("avd_analysis_batch_flushes_total", "Per-task access batches drained.", m.anBatchFlushes.Load)
	r.Counter("avd_analysis_batched_accesses_total", "Accesses dispatched through batches.", m.anBatchedAccesses.Load)
	r.Counter("avd_analysis_window_elisions_total", "Accesses answered by the window-saturation cache.", m.anWindowElisions.Load)

	r.Histogram("avd_run_queue_wait_seconds", "Time from admission to first execution.", &m.queueWait, 1e9)
	r.Histogram("avd_run_duration_seconds", "Time from first execution to terminal state.", &m.runDuration, 1e9)
	return r
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.registry.WritePrometheus(w)
}
