package main

// metricSpec names one printed metric. The lists below must match
// BENCHMARK.json (a test checks it).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints for every workload. All
// are host measurements; an op is one unit of the workload's episode (see
// README.md).
var endToEnd = []metricSpec{
	{"op_ms", "ms"},       // mean host wall time per op, each op at its best pass
	{"op_cpu_ms", "ms"},   // that wall time plus the mean user+system CPU per op beyond it
	{"peak_rss_mb", "MB"}, // peak resident set of the process
	{"setup_s", "s"},      // median set-up time, warm-up included
}

// perLayer are the metrics a traced run prints for every workload. A
// layer a workload does not exercise reads 0: that is the evidence the
// workload bypasses it. Counts and model values cover the run's first
// pass, so they repeat exactly at a fixed seed; times are per traced op.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"bench.ops", "count"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.alloc_mb_per_op", "MB/op"},
		{"bench.self_ms", "ms/op"},
		{"bench.cpu_per_wall", "x"},
		{"bench.ref_ms", "ms"},
		{"bench.raw_op_ms", "ms"},
		{"bench.sim_ginsn_per_s", "Ginsn/s"},
		{"bench.trace_mb_per_s", "MB/s"},
		{"bench.ctrl_req_per_s", "1/s"},

		{"model.overhead_pct", "%"},
		{"model.space_mb", "MB"},
		{"model.accuracy", "ratio"},
		{"model.packed_ratio", "ratio"},
		{"model.coverage", "ratio"},
		{"model.degraded_frac", "ratio"},
		{"model.mgmt_cpu_us_per_req", "us"},
		{"model.p50_running_ms", "ms"},
		{"model.p999_running_ms", "ms"},
		{"model.running_n", "count"},

		{"workload.synthesize_s", "s"},
		{"node.windows", "count"},
		{"node.provision_ms", "ms/op"},
		{"node.attach_ms", "ms/op"},
		{"node.run_ms", "ms/op"},
		{"node.harvest_ms", "ms/op"},
		{"tracer.exist_extra_ms", "ms/op"},
		{"core.msr_ops", "count"},
		{"core.switch_records", "count"},
		{"core.control_kernel_ms", "ms"},
		{"ipt.trace_mb", "MB"},
		{"ipt.dropped_mb", "MB"},
		{"ipt.stopped_cores", "count"},
		{"ipt.kept_frac", "ratio"},
		{"sched.ginsns", "Ginsn"},
		{"sched.gbranches", "G"},
		{"sched.switches", "count"},
		{"sched.migrations", "count"},
		{"simtime.pending_max", "count"},
		{"trace.marshal_ms", "ms/op"},
		{"trace.unmarshal_ms", "ms/op"},
		{"trace.v1_mb", "MB"},
		{"trace.wire_mb", "MB"},
		{"decode.busy_ms", "ms/op"},
		{"decode.mb", "MB"},
		{"decode.events", "count"},
		{"decode.errors", "count"},
		{"decode.resyncs", "count"},
		{"coverage.merge_ms", "ms/op"},
		{"coverage.distinct_funcs", "count"},
		{"cluster.new_s", "s"},
		{"cluster.deploy_s", "s"},
		{"cluster.request_ms", "ms/op"},
		{"cluster.run_ms", "ms/op"},
		{"cluster.syncs", "count"},
		{"cluster.reconciles", "count"},
		{"cluster.requeues", "count"},
		{"cluster.conflicts", "count"},
		{"cluster.relists", "count"},
		{"cluster.elections", "count"},
		{"cluster.fenced_ops", "count"},
		{"cluster.rebalances", "count"},
		{"cluster.readopt_ms", "ms"},
		{"cluster.queue_depth_max", "count"},
		{"cluster.retries", "count"},
		{"cluster.resamples", "count"},
		{"cluster.lease_expiries", "count"},
		{"cluster.upload_puts", "count"},
		{"cluster.upload_sessions", "count"},
		{"cluster.upload_wire_mb", "MB"},
		{"oss.get_ms", "ms/op"},
		{"faults.crashes", "count"},
		{"faults.ctrl_crashes", "count"},
		{"faults.put_failures", "count"},
		{"faults.sessions_lost", "count"},
		{"faults.leaves", "count"},
		{"faults.gray_delays", "count"},
	}
	for _, l := range profileLayers {
		m = append(m, metricSpec{"pkg." + l + ".cpu_share", "ratio"})
	}
	return m
}()
