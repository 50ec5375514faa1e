package main

// metricDef names a metric and its unit. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json lists the same names and units
// (a test compares them), and later performance issues refer to them.
type metricDef struct {
	name string
	unit string
}

// endToEndDefs are the gated metrics, the same on every workload.
// Simulated barrier latency is deliberately not among them: it repeats
// bit-exactly, so it is enforced by the output check (expected.json) and
// reported as experiments.sim_barrier_us, not gated by a noise bound.
var endToEndDefs = []metricDef{
	{"op_cal_ms", "ms"},
	{"allocs_per_op", "1/op"},
	{"alloc_kb_per_op", "KB/op"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs are the metrics of a traced run. Units: ns/us/ms are
// calibrated host time, us_sim is simulated time, count/KB/ratio/% are
// exact or dimensionless.
var perLayerDefs = []metricDef{
	{"sim.schedule_pop_ns_d256", "ns"},
	{"sim.schedule_pop_ns_d16k", "ns"},
	{"sim.cancel_ns_d256", "ns"},
	{"sim.proc_handoff_ns", "ns"},
	{"sim.signal_wake_ns", "ns"},
	{"sim.proc_spawn_us", "us"},

	{"experiments.build_ms.n16", "ms"},
	{"experiments.build_ms.clos256", "ms"},
	{"experiments.barrier_host_us.nic16_pe", "us"},
	{"experiments.barrier_host_us.nic16_gb", "us"},
	{"experiments.barrier_host_us.host16_pe", "us"},
	{"experiments.barrier_host_us.host16_gb", "us"},
	{"experiments.barrier_host_us.clos256_pe", "us"},
	{"experiments.barrier_host_us.clos256_gb", "us"},
	{"experiments.paper_err_pct.nic_pe16_l43", "%"},
	{"experiments.paper_err_pct.factor_pe16", "%"},
	{"experiments.sim_barrier_us", "us_sim"},

	{"cluster.new_ms.n16", "ms"},
	{"cluster.new_ms.clos256", "ms"},
	{"cluster.new_alloc_kb.clos256", "KB"},
	{"topo.build_ms.clos256", "ms"},
	{"topo.route_table_ms.clos256", "ms"},
	{"topo.route_ns.clos8192", "ns"},
	{"model.tuned_dim_us.n8192", "us"},

	{"mcp.fw_tasks_per_barrier", "count"},
	{"lanai.fw_busy_us_per_barrier", "us_sim"},
	{"lanai.sdma_per_barrier", "count"},
	{"lanai.rdma_per_barrier", "count"},
	{"network.packets_per_barrier", "count"},
	{"mcp.retrans_per_op.svc_cold", "count"},

	{"phase.crit_us.HostPost", "us_sim"},
	{"phase.crit_us.HostDone", "us_sim"},
	{"phase.crit_us.NICProc", "us_sim"},
	{"phase.crit_us.DMA", "us_sim"},
	{"phase.crit_us.Wire", "us_sim"},
	{"phase.crit_us.Idle", "us_sim"},
	{"trace.spans_per_barrier", "count"},
	{"trace.observed_overhead_frac", "ratio"},
	{"trace.decompose_ms", "ms"},
	{"trace.chrome_ms", "ms"},
	{"trace.chrome_kb", "KB"},

	{"service.spec.canon_hash_us", "us"},
	{"service.execute_ms", "ms"},
	{"service.store.put_ms", "ms"},
	{"service.store.get_us", "us"},
	{"service.journal.accept_us", "us"},
	{"service.journal.done_us", "us"},
	{"service.cache.get_ns", "ns"},
	{"service.cache.put_us", "us"},
	{"service.http.cold_ms_p50", "ms"},
	{"service.http.cold_ms_p90", "ms"},
	{"service.http.disk_ms_p50", "ms"},
	{"service.http.disk_ms_p99", "ms"},
	{"service.http.ram_us_p50", "us"},
	{"service.http.ram_us_p99", "us"},
	{"service.http.overhead_ms", "ms"},
	{"service.rss_kb_per_cold_op", "KB"},

	{"runner.fig5a_g2_over_g1", "ratio"},
	{"sim.group.p2_over_serial.clos256", "ratio"},

	{"driver.op_ms_p50", "ms"},
	{"driver.op_ms_p90", "ms"},
	{"driver.op_ms_min", "ms"},
	{"driver.ops_per_s", "1/s"},
	{"driver.ref_ms_p50", "ms"},
	{"driver.ref_iqr_frac", "ratio"},
	{"driver.trace_overhead_frac", "ratio"},
}

// unitOf looks a metric up in either table. A name that is in neither is a
// bug in the benchmark, not a condition of the run.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// newMetric builds a reported value for a declared metric.
func newMetric(name string, v float64) metric { return metric{name, unitOf(name), v} }

// missing returns the declared names absent from ms, in table order.
func missing(defs []metricDef, ms []metric) []string {
	have := make(map[string]bool, len(ms))
	for _, m := range ms {
		have[m.name] = true
	}
	var out []string
	for _, d := range defs {
		if !have[d.name] {
			out = append(out, d.name)
		}
	}
	return out
}
