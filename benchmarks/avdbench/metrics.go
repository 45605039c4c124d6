package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root carries the same tables; the package test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // allowed worsening, end-to-end only
}

// endToEnd are the metrics a user of the checker or the service sees.
// Every workload reports every one of them (untraced run). A bound is
// the share of the parent's median by which a later change may worsen
// the metric; they are the issue's, and a pair that does not hold them
// gets more reps or samples, not a wider bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.10},
	{Name: "slowdown_x", Unit: "x", Better: "lower", Bound: 0.10},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the single-layer metrics of the traced run, layer =
// module. Every workload reports every one of them, each measured on
// that workload's own inputs (see README.md for which end-to-end metric
// each should move, on which workload).
var perLayer = []metricDef{
	{Name: "sched.baseline_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "avd.instrumentation_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "avd.accesses_per_step", Unit: "count", Better: "lower"},
	{Name: "avd.parallel_penalty_x", Unit: "x", Better: "lower"},

	{Name: "dpst.build_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "dpst.nodes_per_kevent", Unit: "count", Better: "lower"},
	{Name: "dpst.lca_queries_per_kevent", Unit: "count", Better: "lower"},
	{Name: "dpst.par_ns_per_query", Unit: "ns", Better: "lower"},

	{Name: "checker.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "checker.locations", Unit: "count", Better: "lower"},
	{Name: "checker.heap_bytes_per_location", Unit: "B", Better: "lower"},

	{Name: "trace.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "trace.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decoded_heap_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "trace.record_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "server.post_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.report_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.polls_per_op", Unit: "count", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "server.render_us_per_report", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.evicted_runs", Unit: "count", Better: "lower"},
	{Name: "server.rejected_share", Unit: "ratio", Better: "lower"},

	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.generator_share", Unit: "ratio", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"live-churn", "task-heavy kernels at 1 worker (1.5-8 accesses/step, 8k-33k tasks): sched hooks, DPST node creation and per-task state dominate; front-end caches cannot engage"},
	{"live-reuse", "access-heavy kernels at 1 worker (35-250 accesses/step, few tasks): front-end caches, shadow lookup and MHP queries dominate; DPST construction is negligible"},
	{"live-parallel", "mixed kernels at 2 workers: the same layers used concurrently, so a single-thread win that adds sharing shows as a loss"},
	{"serve-fresh", "closed loop, 2 clients, byte-distinct recorded kernel traces POSTed to the service: decode and replay dominate, report cache never hits"},
	{"serve-small", "closed loop, 2 clients, tiny generated traces drawn from 512 against a 256-entry cache (about half hit): the fixed cost of one replay plus per-request service overhead; per-event cost is negligible"},
}
