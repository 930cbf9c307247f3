package main

// The benchmark's metric vocabulary. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps the two
// from drifting. Later issues refer to these names verbatim.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative regression bound
}

// endToEnd are the six metrics a user of the chain sees. All six are
// reported on every workload. Every one carries the contract's largest
// bound, 0.25. Over ten runs with ten seeds the spread (interquartile
// range ÷ median) of the time metrics is 0.01–0.06 on a quiet host and up
// to 0.10 when its speed moves by a third during the set, after the
// harness has put processor-bound times at the reference speed (speed.go);
// peak memory, a maximum that follows the collector's pacing, spreads
// 0.02–0.05 and once 0.12 (README, "How steady it is"). A bound has to
// stay above three times the spread, or it calls noise a regression.
var endToEnd = []metricDef{
	{"commit_latency_p50_ms", "ms", "lower", 0.25},
	{"commit_latency_p95_ms", "ms", "lower", 0.25},
	{"throughput_tps", "tx/s", "higher", 0.25},
	{"cpu_us_per_tx", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the per-layer ladder. Probes run on every workload; a
// counter-derived metric is absent on workloads whose layer does no
// work there (the JSON line then carries 0, the text output "absent").
var perLayer = []metricDef{
	// crypto: probes of the public functions, then ratios from the
	// process-wide sigcache counters.
	{"crypto.sign_us", "us", "lower", 0},
	{"crypto.verify_us", "us", "lower", 0},
	{"crypto.verify_batch_us_per_sig", "us", "lower", 0},
	{"crypto.merkle_us_per_leaf", "us", "lower", 0},
	{"crypto.vrf_tickets_us", "us", "lower", 0},
	{"crypto.verifies_per_tx", "count", "lower", 0},
	{"crypto.sigcache_hit_rate", "ratio", "higher", 0},
	// tx and codec.
	{"tx.sign_us", "us", "lower", 0},
	{"tx.label_sign_us", "us", "lower", 0},
	{"tx.decode_us", "us", "lower", 0},
	{"codec.pool_miss_rate", "ratio", "lower", 0},
	// mempool.
	{"mempool.push_drain_ns_per_tx", "ns", "lower", 0},
	{"mempool.refused_share", "ratio", "lower", 0},
	// network (in-process bus) and transport (TCP).
	{"network.deliver_ns_per_msg", "ns", "lower", 0},
	{"transport.frame_us", "us", "lower", 0},
	{"transport.frames_per_tx", "count", "lower", 0},
	{"transport.dials_per_round", "count", "lower", 0},
	{"transport.retries_per_ktx", "count", "lower", 0},
	{"transport.send_failures", "count", "lower", 0},
	// core: the round's stage budget, then harness-side round costs.
	{"core.stage_upload_p50_ms", "ms", "lower", 0},
	{"core.stage_screen_p50_ms", "ms", "lower", 0},
	{"core.stage_elect_p50_ms", "ms", "lower", 0},
	{"core.stage_pack_p50_ms", "ms", "lower", 0},
	{"core.stage_commit_p50_ms", "ms", "lower", 0},
	{"core.stage_argue_p50_ms", "ms", "lower", 0},
	{"core.round_p50_ms", "ms", "lower", 0},
	{"core.round_p95_ms", "ms", "lower", 0},
	{"core.submit_us_per_tx", "us", "lower", 0},
	{"core.alloc_bytes_per_tx", "B", "lower", 0},
	{"core.allocs_per_tx", "count", "lower", 0},
	{"core.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"core.cores_busy", "cores", "higher", 0},
	// node: governor 0's screening counters.
	{"node.reports_per_tx", "count", "lower", 0},
	{"node.checked_per_tx", "count", "lower", 0},
	{"node.unchecked_share", "ratio", "higher", 0},
	{"node.argues_per_ktx", "count", "lower", 0},
	{"node.expired_per_ktx", "count", "lower", 0},
	// reputation and rwm.
	{"reputation.update_ns", "ns", "lower", 0},
	{"rwm.draw_ns", "ns", "lower", 0},
	{"reputation.updates_per_tx", "count", "lower", 0},
	{"reputation.honest_share", "ratio", "higher", 0},
	// consensus.
	{"consensus.elect_us", "us", "lower", 0},
	// ledger.
	{"ledger.append_us_per_block", "us", "lower", 0},
	{"ledger.snapshot_ms", "ms", "lower", 0},
	{"ledger.reopen_ms", "ms", "lower", 0},
	{"ledger.disk_bytes_per_tx", "B", "lower", 0},
	// shard.
	{"shard.cross_share", "ratio", "lower", 0},
	{"shard.receipt_rounds_p50", "rounds", "lower", 0},
	{"shard.receipts_pending_max", "count", "lower", 0},
	// chaos.
	{"chaos.rounds_aborted", "count", "lower", 0},
	{"chaos.blocks_synced", "count", "lower", 0},
	{"chaos.recovery_rounds", "rounds", "lower", 0},
	{"chaos.lost_tx_share", "ratio", "lower", 0},
	// the harness itself.
	{"bench.generator_late_p95_ms", "ms", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
	{"bench.host_speed", "ratio", "higher", 0},
}
