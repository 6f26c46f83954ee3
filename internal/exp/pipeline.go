package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simcheck"
	"repro/internal/telemetry"
)

// job describes one simulation to the run pipeline: the topology builder
// that makes its network and the shaper that turns the finished network into
// the caller's result type R. See DESIGN.md "Run pipeline".
type job[R any] struct {
	name    string // labels errors, spans and trace events
	seed    uint64
	horizon time.Duration
	// shards caps RunSharded. Only the huge mesh passes more than 1: a
	// dumbbell partitions into one shard whatever the cap, and the
	// multi-bottleneck run must stay sequential (see RunMultiBottleneck).
	shards int
	check  bool // attach the invariant checker (ForceCheck forces it on)

	build func() (*netsim.Network, error)
	shape func(*netsim.Network, outcome) R
}

// outcome is what the pipeline measured on a finished run, for the shaper.
type outcome struct {
	run     *netsim.ShardRun
	digest  uint64 // zero unless checked
	checked bool
	stream  *obs.StreamSummary // nil unless Obs is set
}

// execute is the one place a built network becomes a finished run. On the
// network it attaches the invariant checker, then the streaming observer
// — the checker takes the tap slot, the observer chains behind it and claims
// the window hook — runs it through RunSharded (sequential at one shard),
// adds the finished run's totals to the telemetry hub (see foldSimTotals),
// and finishes observer and checker. An invariant violation is the run's
// error. The exp and sim metric families are looked up with an empty help
// string: telemetry.Setup pre-registers them and owns their help text.
func execute[R any](j job[R]) (res R, err error) {
	liveRuns.Add(1)
	n, err := j.build()
	if err != nil {
		return res, err
	}
	var ck *simcheck.Checker
	if j.check || ForceCheck {
		ck = simcheck.Attach(n)
	}
	hub := Telemetry
	var span telemetry.Span
	var started time.Time
	if hub.Enabled() {
		exportJuryGauges(hub.Registry, n)
		hub.Registry.Counter("exp_runs_started_total", "").Inc()
		span = hub.StartSpan("run:"+j.name, 0)
		hub.Event("exp", "run_start", 0,
			telemetry.Str("scenario", j.name),
			telemetry.I64("flows", int64(len(n.Flows()))),
			telemetry.I64("seed", int64(j.seed)))
		started = time.Now()
	}
	fail := func(err error, outcome string) (R, error) {
		if hub.Enabled() {
			hub.Registry.Counter("exp_runs_failed_total", "").Inc()
			span.End(j.horizon, telemetry.Str("outcome", outcome))
		}
		var none R
		return none, fmt.Errorf("exp: scenario %q: %w", j.name, err)
	}
	var ob *obs.Observer
	if Obs != nil {
		// The violation hook and the panic dump are wired here so obs never
		// imports simcheck or the harness.
		ob = Obs.Attach(n, j.shards)
		if ck != nil {
			ck.SetViolationHook(func(v simcheck.Violation) { ob.NoteViolation(v.Time, v.Rule) })
		}
		defer func() {
			if r := recover(); r != nil {
				ob.DumpFlight("panic")
				panic(r)
			}
		}()
	}
	run, err := n.RunSharded(j.horizon, j.shards)
	if err != nil {
		return fail(err, "error")
	}
	if hub.Enabled() {
		foldSimTotals(hub, n, run, j.horizon)
	}
	out := outcome{run: run, stream: ob.Finish(j.horizon)}
	if ck != nil {
		ck.Finish()
		if err := ck.Err(); err != nil {
			return fail(err, "invariant_violation")
		}
		out.digest, out.checked = ck.Digest(), true
	}
	res = j.shape(n, out)
	if hub.Enabled() {
		hub.Registry.Histogram("exp_run_seconds", "").Observe(time.Since(started).Seconds())
		hub.Registry.Counter("exp_runs_finished_total", "").Inc()
		span.End(j.horizon, telemetry.Str("outcome", "ok"))
		var snapshots int64
		if out.stream != nil {
			snapshots = out.stream.Snapshots
		}
		hub.Event("exp", "run_finish", j.horizon,
			telemetry.Str("scenario", j.name),
			telemetry.Str("digest", fmt.Sprintf("%016x", out.digest)),
			telemetry.I64("obs_snapshots", snapshots))
	}
	return res, nil
}

// exportJuryGauges points the decision-guard gauges at the summed counters
// of n's Jury controllers. The counters are atomics, so /metrics reads them
// live while the run executes; the next run re-points the gauges.
func exportJuryGauges(r *telemetry.Registry, n *netsim.Network) {
	var juries []*core.Jury
	for _, f := range n.Flows() {
		if j, ok := f.CC().(*core.Jury); ok {
			juries = append(juries, j)
		}
	}
	if len(juries) == 0 {
		return
	}
	sum := func(read func(*core.Jury) int64) func() float64 {
		return func() float64 {
			var s int64
			for _, j := range juries {
				s += read(j)
			}
			return float64(s)
		}
	}
	r.GaugeFunc("jury_intervals", "control intervals elapsed across Jury flows of the live network",
		sum((*core.Jury).Intervals))
	r.GaugeFunc("jury_degraded_decisions", "AIMD fallbacks at the decision boundary (non-finite signals or policy output)",
		sum((*core.Jury).DegradedDecisions))
	r.GaugeFunc("jury_nonfinite_actions", "non-finite actions that slipped past the decision guard (must stay 0)",
		sum((*core.Jury).NonFiniteActions))
}

// foldSimTotals adds a finished run's own totals — the flows' lifetime
// stats, the links' drop and fault counts, the shards' event counts — to the
// hub's sim counters, so they step once per run and cost nothing per
// packet. Acked and lost are what running senders were credited with: an
// ACK or loss arriving after a flow stopped is not counted. With a trace
// sink, every recorded series point becomes one sim/sample event.
func foldSimTotals(hub *telemetry.Hub, n *netsim.Network, run *netsim.ShardRun, horizon time.Duration) {
	r := hub.Registry
	var sent, acked, lost, intervals, drops, faults, events int64
	for _, f := range n.Flows() {
		st := f.Stats()
		sent += st.SentPackets
		acked += st.AckedPackets
		lost += st.LostPackets
		intervals += f.Intervals()
		if hub.Tracer == nil {
			continue
		}
		for _, p := range f.Series() {
			hub.Tracer.Event("sim", "sample", p.T,
				telemetry.Str("flow", f.Name()),
				telemetry.F64("thr_bps", p.ThroughputBps),
				telemetry.Dur("avg_rtt_ns", p.AvgRTT),
				telemetry.F64("cwnd", p.Cwnd),
				telemetry.F64("pacing_bps", p.PacingBps))
		}
	}
	for _, l := range n.Links() {
		ls, fs := l.Stats(), l.FaultStats()
		drops += ls.OverflowDrops + ls.RandomDrops
		faults += fs.BurstDrops + fs.BlackoutDrops + fs.Reordered + fs.Duplicated + fs.JitterSpikes
	}
	for i, e := range run.Executed {
		events += e
		r.Counter(fmt.Sprintf("sim_shard_%d_events_total", i), fmt.Sprintf("events executed by shard %d across runs", i)).Add(e)
	}
	r.Counter("sim_packets_sent_total", "").Add(sent)
	r.Counter("sim_packets_acked_total", "").Add(acked)
	r.Counter("sim_packets_lost_total", "").Add(lost)
	r.Counter("sim_intervals_total", "").Add(intervals)
	r.Counter("sim_queue_drops_total", "").Add(drops)
	r.Counter("sim_faults_injected_total", "").Add(faults)
	r.Counter("sim_engine_events_total", "").Add(events)
	r.Counter("sim_barrier_rounds_total", "").Add(run.BarrierRounds)
	r.Counter("sim_fused_windows_total", "").Add(run.FusedWindows)
	r.Gauge("sim_shards", "").Set(float64(len(run.Executed)))
	r.Gauge("sim_virtual_time_seconds", "").Set(horizon.Seconds())
}
