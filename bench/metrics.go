package main

// metricDef names one metric. BENCHMARK.json at the root of the repo
// commits the same lists; the tests hold the two together.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them, from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"apply_p50_us", "us", "lower", 0.25},
	{"apply_p90_us", "us", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer is <module>.<metric>, from a traced run. A layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	{name: "session.apply_self_us_per_batch", unit: "us", better: "lower"},
	{name: "session.apply_p95_us", unit: "us", better: "lower"},
	{name: "session.open_seed_calls", unit: "count", better: "lower"},
	{name: "session.read_p50_us", unit: "us", better: "lower"},
	{name: "session.read_p99_us", unit: "us", better: "lower"},
	{name: "session.read_max_us", unit: "us", better: "lower"},
	{name: "session.allocs_per_update", unit: "count", better: "lower"},
	{name: "session.resume_ms", unit: "ms", better: "lower"},
	{name: "session.resume_calls", unit: "count", better: "lower"},
	{name: "centralized.detect_ms", unit: "ms", better: "lower"},
	{name: "centralized.apply_us_per_update", unit: "us", better: "lower"},
	{name: "centralized.apply_vs_detect", unit: "ratio", better: "lower"},
	{name: "cfd.publish_us_per_batch", unit: "us", better: "lower"},
	{name: "cfd.delta_marks_per_update", unit: "count", better: "lower"},
	{name: "cfd.violating_share", unit: "ratio", better: "lower"},
	{name: "cfd.v_fingerprint", unit: "count", better: "lower"},
	{name: "horizontal.site_busy_us_per_batch", unit: "us", better: "lower"},
	{name: "horizontal.calls_per_batch", unit: "count", better: "lower"},
	{name: "vertical.site_busy_us_per_batch", unit: "us", better: "lower"},
	{name: "vertical.calls_per_batch", unit: "count", better: "lower"},
	{name: "vertical.eqids_per_update", unit: "count", better: "lower"},
	{name: "network.wire_bytes_per_update", unit: "B", better: "lower"},
	{name: "network.wire_msgs_per_update", unit: "count", better: "lower"},
	{name: "network.frame_bytes_per_update", unit: "B", better: "lower"},
	{name: "network.frame_per_wire_byte", unit: "ratio", better: "lower"},
	{name: "network.wait_us_per_batch", unit: "us", better: "lower"},
	{name: "network.write_us_per_batch", unit: "us", better: "lower"},
	{name: "network.round_trips_per_batch", unit: "count", better: "lower"},
	{name: "network.replayed_calls", unit: "count", better: "lower"},
	{name: "netwire.encode_us_per_msg", unit: "us", better: "lower"},
	{name: "netwire.decode_us_per_msg", unit: "us", better: "lower"},
	{name: "netwire.frame_overhead_bytes_per_msg", unit: "B", better: "lower"},
	{name: "sitehost.dispatch_us_per_call", unit: "us", better: "lower"},
	{name: "sitehost.bootstrap_ms", unit: "ms", better: "lower"},
	{name: "checkpoint.mark_us_per_batch", unit: "us", better: "lower"},
	{name: "checkpoint.snapshot_ms_p50", unit: "ms", better: "lower"},
	{name: "checkpoint.disk_bytes_final", unit: "B", better: "lower"},
	{name: "journal.append_us_per_round", unit: "us", better: "lower"},
	{name: "journal.bytes_per_update", unit: "B", better: "lower"},
	{name: "journal.recover_ms", unit: "ms", better: "lower"},
	{name: "storage.faults_per_update", unit: "count", better: "lower"},
	{name: "storage.evictions_per_update", unit: "count", better: "lower"},
	{name: "storage.hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.flushed_bytes_per_update", unit: "B", better: "lower"},
	{name: "storage.compactions", unit: "count", better: "lower"},
	{name: "storage.disk_bytes_per_row", unit: "B", better: "lower"},
	{name: "storage.resident_bytes_peak", unit: "B", better: "lower"},
	{name: "storage.overhead_us_per_batch", unit: "us", better: "lower"},
	{name: "queryhttp.query_us", unit: "us", better: "lower"},
	{name: "workload.gen_s", unit: "s", better: "lower"},
	{name: "bench.timed_s", unit: "s", better: "lower"},
	{name: "bench.run_s", unit: "s", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
}

// exactLayer are the per-layer counts that must repeat bit for bit for
// one seed: they are taken over the fixed meter window, with one client
// and no timers.
var exactLayer = []string{
	"session.open_seed_calls", "session.resume_calls",
	"cfd.delta_marks_per_update", "cfd.violating_share", "cfd.v_fingerprint",
	"horizontal.calls_per_batch", "vertical.calls_per_batch", "vertical.eqids_per_update",
	"network.wire_bytes_per_update", "network.wire_msgs_per_update",
	"network.round_trips_per_batch", "network.replayed_calls",
	"netwire.frame_overhead_bytes_per_msg",
	"storage.faults_per_update", "storage.evictions_per_update", "storage.hit_ratio",
	"storage.flushed_bytes_per_update", "storage.compactions",
}
