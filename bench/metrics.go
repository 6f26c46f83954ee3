package main

// metricDef names one metric the benchmark can emit. The tables below are
// the benchmark's vocabulary; BENCHMARK.json at the repository root must
// list exactly the same names, units and directions (TestNamesMatchBenchmarkJSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off; the
// driver gates them by Bound (share of the parent's median). The bounds are
// what the shared 2-core reference box can resolve from ten runs (see
// README.md, "Measured spread"); the finer per-workload gates are in gates.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are reported by the traced pass. Each is measured by the one
// workload whose layers it describes and reads 0 on the others. The block
// at the end holds the end-to-end figures that exist on one workload only;
// `-compare` gates them (see gates), the driver records them.
var perLayer = []metricDef{
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "simcore.events", Unit: "count", Better: "lower"},
	{Name: "simcore.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simcore.event_ns_shallow", Unit: "ns", Better: "lower"},
	{Name: "simcore.event_ns_deep", Unit: "ns", Better: "lower"},
	{Name: "simcore.shard_speedup_x", Unit: "x", Better: "higher"},
	{Name: "simcore.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "simcore.barrier_rounds", Unit: "count", Better: "lower"},
	{Name: "simcore.fused_window_ratio", Unit: "ratio", Better: "higher"},
	{Name: "simcore.scale_ratio", Unit: "ratio", Better: "higher"},

	{Name: "netsim.packets_sent", Unit: "count", Better: "lower"},
	{Name: "netsim.packets_acked", Unit: "count", Better: "higher"},
	{Name: "netsim.queue_drops", Unit: "count", Better: "lower"},
	{Name: "netsim.intervals", Unit: "count", Better: "lower"},
	{Name: "netsim.events_per_packet", Unit: "ratio", Better: "lower"},
	{Name: "netsim.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netsim.ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "netsim.build_s", Unit: "s", Better: "lower"},

	{Name: "cc.on_ack_calls", Unit: "count", Better: "lower"},
	{Name: "cc.on_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "core.on_interval_calls", Unit: "count", Better: "lower"},
	{Name: "core.on_interval_ns", Unit: "ns", Better: "lower"},
	{Name: "core.policy_decide_ns", Unit: "ns", Better: "lower"},
	{Name: "cc.share", Unit: "ratio", Better: "lower"},

	{Name: "nn.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "nn.backward_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.decide_batch_ns_per_row", Unit: "ns", Better: "lower"},

	{Name: "rl.collect_s", Unit: "s", Better: "lower"},
	{Name: "rl.update_s", Unit: "s", Better: "lower"},
	{Name: "rl.update_ms", Unit: "ms", Better: "lower"},
	{Name: "rl.env_steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rl.skipped_updates", Unit: "count", Better: "lower"},

	{Name: "agentrpc.wire_floor_us", Unit: "us", Better: "lower"},
	{Name: "agentrpc.batcher_wait_us", Unit: "us", Better: "lower"},
	{Name: "agentrpc.batcher_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "agentrpc.batch_fill", Unit: "ratio", Better: "higher"},
	{Name: "agentrpc.shed", Unit: "count", Better: "lower"},
	{Name: "agentrpc.timeouts", Unit: "count", Better: "lower"},
	{Name: "agentrpc.fallbacks", Unit: "count", Better: "lower"},
	{Name: "agentrpc.dial_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.snapshots", Unit: "count", Better: "higher"},
	{Name: "simcheck.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "simcheck.violations", Unit: "count", Better: "lower"},
	{Name: "telemetry.tax_ratio", Unit: "ratio", Better: "lower"},

	{Name: "exp.fig7_s", Unit: "s", Better: "lower"},
	{Name: "exp.tab3_s", Unit: "s", Better: "lower"},
	{Name: "exp.ablation_s", Unit: "s", Better: "lower"},
	{Name: "exp.fig8_s", Unit: "s", Better: "lower"},
	{Name: "exp.runs", Unit: "count", Better: "lower"},
	{Name: "exp.cpu_utilization", Unit: "ratio", Better: "higher"},

	{Name: "runstore.put_us", Unit: "us", Better: "lower"},
	{Name: "runstore.get_us", Unit: "us", Better: "lower"},

	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_kevent", Unit: "ratio", Better: "lower"},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "decision_p50_us", Unit: "us", Better: "lower"},
	{Name: "decision_p99_us", Unit: "us", Better: "lower"},
	{Name: "decision_p999_us", Unit: "us", Better: "lower"},
	{Name: "jain_jury_min", Unit: "index", Better: "higher"},
	{Name: "train_reward_final", Unit: "reward", Better: "higher"},
	{Name: "mem_bytes_per_flow", Unit: "B", Better: "lower"},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
}

// gate is one regression rule `-compare` applies: on the listed workloads
// (nil = all), B's value may be worse than A's by at most
// max(Rel x |A|, Abs).
type gate struct {
	Metric    string
	Workloads []string
	Rel, Abs  float64
}

var gates = []gate{
	{Metric: "setup_s", Rel: 0.10, Abs: 0.05},
	{Metric: "wall_s", Rel: 0.10},
	{Metric: "decisions_per_s", Workloads: []string{wlServeSocket}, Rel: 0.10},
	{Metric: "decision_p50_us", Workloads: []string{wlServeSocket}, Rel: 0.10},
	{Metric: "decision_p99_us", Workloads: []string{wlServeSocket}, Rel: 0.10},
	{Metric: "fail_ratio"},
	{Metric: "jain_jury_min", Workloads: []string{wlPaperFigs}, Abs: 0.005},
	{Metric: "train_reward_final", Workloads: []string{wlTrainEpoch}, Rel: 0.01},
	{Metric: "mem_bytes_per_flow", Workloads: []string{wlMesh100k}, Rel: 0.05},
}

// lookupDef finds a metric's definition in either table.
func lookupDef(name string) (metricDef, bool) {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
