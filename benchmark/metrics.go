package main

// metricDef is one reported metric. bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change counts as a regression. BENCHMARK.json at the repository
// root carries the same table (TestManifestMatchesTables keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// worse reports whether a is worse than b in the metric's direction.
func (d metricDef) worse(a, b float64) bool {
	if d.better == "higher" {
		return a < b
	}
	return a > b
}

// endToEnd metrics come from an untraced run.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"makespan_over_bound", "ratio", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from a traced run (Pass A over HTTP, Pass B
// replaying the misses with a span around each layer call). A metric of a
// layer that does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{name: "server.respcache_hit_ratio", unit: "fraction", better: "higher"},
	{name: "server.hit_cost_ratio", unit: "ratio", better: "lower"},
	{name: "server.miss_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "server.singleflight_shared", unit: "count", better: "higher"},
	{name: "server.alloc_kb_per_req", unit: "KiB", better: "lower"},
	{name: "server.gc_per_kreq", unit: "count", better: "lower"},
	{name: "server.codec_ms_per_req", unit: "ms", better: "lower"},
	{name: "autotune.candidates_per_req", unit: "count", better: "lower"},
	{name: "autotune.self_share", unit: "fraction", better: "lower"},
	{name: "collective.build_share", unit: "fraction", better: "lower"},
	{name: "collective.transfers_per_schedule", unit: "count", better: "lower"},
	{name: "collective.cache_hit_ratio", unit: "fraction", better: "higher"},
	{name: "collective.patch_ratio", unit: "fraction", better: "higher"},
	{name: "collective.evictions", unit: "count", better: "lower"},
	{name: "schedcheck.validate_share", unit: "fraction", better: "lower"},
	{name: "schedcheck.ns_per_transfer", unit: "ns/transfer", better: "lower"},
	{name: "des.execute_share", unit: "fraction", better: "lower"},
	{name: "des.tasks_per_req", unit: "count", better: "lower"},
	{name: "synth.compile_share", unit: "fraction", better: "lower"},
	{name: "synth.variants_per_compile", unit: "count", better: "lower"},
	{name: "train.run_share", unit: "fraction", better: "lower"},
	{name: "train.steps", unit: "count", better: "lower"},
	{name: "fault.run_share", unit: "fraction", better: "lower"},
	{name: "fault.repairs_per_req", unit: "count", better: "lower"},
	{name: "fault.rerouted_transfers", unit: "count", better: "lower"},
	{name: "topology.build_ms_total", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "trace.root_self_share", unit: "fraction", better: "lower"},
}
