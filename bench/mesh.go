package main

import (
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/obs"
)

func meshOptions(c *ctx, flows int, shards int) exp.HugeOptions {
	o := exp.HugeOptions{TotalFlows: flows, Shards: shards, Seed: c.seed}
	if c.smoke {
		// The links, not the flows, set the event rate: shrink both.
		o.TotalFlows, o.Horizon = flows/50, 100*time.Millisecond
	}
	return o
}

// meshRep builds the 100k-flow parking-lot mesh once on its own (set-up
// time and bytes per flow), drops it, then times exp.RunHuge with the
// streaming observer attached: at this scale the stream summary is the
// only fairness view, so obs-on is how the mesh is really run.
//
// Traced, the timed part is the same work done through the exported pieces
// RunHuge is made of — exp.BuildHuge, Runtime.Attach, Network.RunSharded,
// Observer.Finish — with a span around each, because only RunSharded's own
// result carries the coordinator's barrier counts.
func meshRep(c *ctx, tr *tracer) (*rep, error) {
	r := &rep{fp: newFingerprint(), vals: map[string]float64{}, ops: 1}
	o := meshOptions(c, 100_000, 2)

	before := liveHeap()
	var n *netsim.Network
	r.setup = timeIt(func() { n, o = exp.BuildHuge(o) })
	after := liveHeap()
	r.vals["mem_bytes_per_flow"] = float64(after-before) / float64(len(n.Flows()))
	runtime.KeepAlive(n)
	n = nil

	exp.Obs = obs.New(obs.Options{})
	defer func() { exp.Obs = nil }()
	var res *exp.HugeResult
	if tr == nil {
		var err error
		r.wall = timeIt(func() { res, err = exp.RunHuge(o) })
		if err != nil {
			r.failf("RunHuge: %v", err)
			return r, nil
		}
	} else {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var sr *netsim.ShardRun
		var err error
		r.wall = timeIt(func() {
			root := tr.begin("mesh_100k.rep", 0)
			sp := tr.begin("netsim.build", root)
			n, _ := exp.BuildHuge(o)
			tr.end(sp)
			sp = tr.begin("obs.attach", root)
			ob := exp.Obs.Attach(n, min(o.Shards, o.Segments))
			tr.end(sp)
			sp = tr.begin("simcore.run_sharded", root)
			sr, err = n.RunSharded(o.Horizon, o.Shards)
			tr.end(sp)
			if err != nil {
				return
			}
			res = &exp.HugeResult{FlowCount: o.TotalFlows, Segments: o.Segments, ShardCount: sr.Partition.Shards, ExecutedPerShard: sr.Executed}
			for _, e := range sr.Executed {
				res.Events += e
			}
			sp = tr.begin("obs.finish", root)
			res.Stream = ob.Finish(o.Horizon)
			tr.end(sp)
			tr.end(root)
		})
		if err != nil {
			r.failf("RunSharded: %v", err)
			return r, nil
		}
		runtime.ReadMemStats(&ms1)
		r.vals["simcore.barrier_rounds"] = float64(sr.BarrierRounds)
		if sr.BarrierRounds > 0 {
			r.vals["simcore.fused_window_ratio"] = float64(sr.FusedWindows) / float64(sr.BarrierRounds)
		}
		// GCCPUFraction is the runtime's own figure since process start;
		// pauses and mallocs are deltas across this rep.
		r.vals["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		r.vals["runtime.gc_cpu_fraction"] = ms1.GCCPUFraction
		r.vals["runtime.mallocs_per_kevent"] = float64(ms1.Mallocs-ms0.Mallocs) / (float64(res.Events) / 1e3)
		r.vals["runtime.heap_sys_mb"] = float64(ms1.HeapSys) / (1 << 20)
		r.vals["runtime.peak_rss_mb"] = peakRSSMB()
	}

	r.fp.u64(uint64(res.Events))
	for _, e := range res.ExecutedPerShard {
		r.fp.u64(uint64(e))
	}
	if res.Stream == nil {
		r.failf("mesh ran without a stream summary")
		return r, nil
	}
	r.fp.f64(res.Stream.FinalJain)
	if res.Events <= 0 || !(res.Stream.FinalJain > 0 && res.Stream.FinalJain <= 1) {
		r.failf("mesh output implausible: %d events, final Jain %v", res.Events, res.Stream.FinalJain)
	}

	var most, sum int64
	for _, e := range res.ExecutedPerShard {
		most, sum = max(most, e), sum+e
	}
	r.vals["simcore.events"] = float64(res.Events)
	r.vals["simcore.events_per_s"] = float64(res.Events) / r.wall.Seconds()
	r.vals["simcore.shard_imbalance"] = float64(most) * float64(len(res.ExecutedPerShard)) / float64(sum)
	r.vals["netsim.drop_ratio"] = float64(res.Stream.Drops) / float64(res.Events)
	r.vals["obs.snapshots"] = float64(res.Stream.Snapshots)
	r.vals["netsim.build_s"] = r.setup.Seconds()
	return r, nil
}

// meshProbes explains the mesh's wall time: how a tenth of the flows
// scales (the events/s fall from 10k to 100k flows is an open anomaly), what
// a second shard buys, what the observer costs, and what one deep-queue
// engine event costs with nothing attached.
func meshProbes(c *ctx, tr *tracer, base, traced *rep, out *layerOut) error {
	small := func(shards int, observed bool) (wall time.Duration, res *exp.HugeResult, err error) {
		if observed {
			exp.Obs = obs.New(obs.Options{})
			defer func() { exp.Obs = nil }()
		}
		sp := tr.begin("probe.mesh_10k", 0)
		wall = timeIt(func() { res, err = exp.RunHuge(meshOptions(c, 10_000, shards)) })
		tr.end(sp)
		return wall, res, err
	}
	one1, _, err := small(1, true)
	if err != nil {
		return err
	}
	// Interleave obs-on and obs-off so drift in the machine's speed hits
	// both sides alike.
	var on, off []float64
	var events int64
	for i := 0; i < 3; i++ {
		w, res, err := small(2, true)
		if err != nil {
			return err
		}
		on, events = append(on, w.Seconds()), res.Events
		if w, _, err = small(2, false); err != nil {
			return err
		}
		off = append(off, w.Seconds())
	}
	two := median(on)
	out.set("simcore.shard_speedup_x", one1.Seconds()/two)
	out.set("obs.tax_ratio", two/median(off))
	// Same shard count on both sides; the 100k figure is the untraced rep's.
	out.set("simcore.scale_ratio", base.vals["simcore.events_per_s"]/(float64(events)/two))
	probeEngine(c, out, "simcore.event_ns_deep", 200_000, 2*time.Second)
	return nil
}
