package main

// metricDef is one line of BENCHMARK.json: a metric's name, unit,
// direction and — end to end only — the share of the baseline median
// by which it may worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEnd is what a client of the cluster sees, measured with every
// wrapper off. Every workload reports every one of them.
//
// The bounds are what the sizing box supports, not what one would
// wish: ten runs of one binary on that 2-core shared VM spread (first
// to third quartile, as a share of the median) by up to 17% on the
// CPU-bound workloads and 22% on outage_ms, and the acceptance
// contract caps a bound at 0.25. README.md has the table.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_p99_ms", "ms", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"outage_ms", "ms", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// deferKinds are the Env.Defer job kinds of the replica's hot paths.
var deferKinds = []string{
	"verify-intake", "verify-forward", "sign-order", "verify-prepare", "verify-order",
	"mac-reply", "sign-replysign", "verify-replysign", "wal-commit",
}

// stepClasses are the Step classes reported per class.
var stepClasses = []string{"replicate", "prepare", "commit", "reply", "async", "timer"}

// perLayer is what the traced pass reports, layer by layer. README.md
// says which end-to-end metric each should move, and where.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name: name, unit: unit} }
	higher := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, higher: true} }
	m := []metricDef{
		lower("crypto.signs_per_op", "count"),
		lower("crypto.verifies_per_op", "count"),
		lower("crypto.macs_per_op", "count"),
		higher("crypto.batched_share", "ratio"),
		higher("crypto.batch_size_mean", "count"),
		lower("crypto.sign_us_mean", "us"),
		lower("crypto.verify_us_per_sig", "us"),
		lower("crypto.busy_us_per_op", "us"),
		lower("crypto.primary.busy_us_per_op", "us"),
		lower("crypto.follower.busy_us_per_op", "us"),
		lower("crypto.client.busy_us_per_op", "us"),

		lower("xpaxos.primary.step_busy_share", "ratio"),
		lower("xpaxos.follower.step_busy_share", "ratio"),
		lower("xpaxos.primary.step_self_us_per_op", "us"),
	}
	for _, c := range stepClasses {
		m = append(m, lower("xpaxos.step_us."+c, "us"))
	}
	m = append(m, higher("xpaxos.batch_ops_mean", "count"))
	for _, k := range deferKinds {
		m = append(m, lower("xpaxos.defer_wait_us."+k, "us"))
	}
	for _, k := range deferKinds {
		m = append(m, lower("xpaxos.defer_work_us."+k, "us"))
	}
	return append(m,
		lower("xpaxos.intake_queued_max", "count"),
		lower("xpaxos.intake_shed_per_kop", "1/kop"),
		lower("xpaxos.client.retransmits_per_kop", "1/kop"),
		lower("xpaxos.client.view_rotations", "count"),
		lower("xpaxos.client.wedged_requests", "count"),
		lower("xpaxos.view_changes", "count"),
		lower("xpaxos.detect_ms", "ms"),
		lower("xpaxos.viewchange_ms", "ms"),
		lower("xpaxos.redirect_ms", "ms"),
		lower("xpaxos.steady_p50_ms", "ms"),
		lower("xpaxos.steady_p99_ms", "ms"),

		lower("smr.async_inbox_wait_us", "us"),
		lower("smr.submit_wait_us", "us"),
		lower("smr.timers_per_op", "count"),

		lower("wire.msgs_per_op", "count"),
		lower("wire.bytes_per_op", "bytes"),
		lower("wire.encode_us_per_op", "us"),
		lower("wire.decode_us_per_op", "us"),

		lower("transport.sends_per_op", "count"),
		lower("transport.send_call_us_mean", "us"),
		lower("transport.queue_depth_max", "count"),
		lower("transport.drops", "count"),
		lower("transport.rtt_ms", "ms"),

		lower("wal.appends_per_op", "count"),
		lower("wal.syncs_per_kop", "1/kop"),
		higher("wal.records_per_sync_mean", "count"),
		lower("wal.sync_ms_p50", "ms"),
		lower("wal.sync_ms_p99", "ms"),
		lower("wal.append_us_mean", "us"),
		lower("wal.bytes_per_op", "bytes"),
		lower("wal.busy_us_per_op", "us"),
		lower("wal.dropped_records", "count"),

		lower("kv.execute_us_per_op", "us"),
		lower("kv.snapshots_per_kop", "1/kop"),
		lower("kv.snapshot_ms_mean", "ms"),
		lower("kv.state_bytes", "bytes"),

		lower("proc.allocs_per_op", "count"),
		lower("proc.alloc_bytes_per_op", "bytes"),
		lower("proc.gc_cpu_share", "ratio"),
		lower("proc.rss_peak_mb", "MB"),
		lower("proc.goroutines_max", "count"),

		lower("gen.late_p99_ms", "ms"),
		lower("gen.late_max_ms", "ms"),
		lower("gen.failed_share", "ratio"),

		lower("trace.overhead_share", "ratio"),
		higher("trace.accounted_share", "ratio"),

		lower("crypto.raw_sign_us", "us"),
		lower("crypto.raw_verify_us", "us"),
		lower("crypto.raw_batch20_us_per_sig", "us"),
		lower("wal.raw_fsync_ms", "ms"),
		lower("wire.raw_encode_batch20x1k_ns", "ns"),
	)
}()
