package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/simcore"
)

// Direct-drive probes and timing helpers shared by more than one workload.

// timeIt reports the wall time of fn.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// nsPerCall reports the mean wall ns of fn over iters calls, after a tenth
// as many warm-up calls.
func nsPerCall(iters int, fn func(i int)) float64 {
	iters = max(iters, 1)
	for i := 0; i < iters/10; i++ {
		fn(i)
	}
	wall := timeIt(func() {
		for i := 0; i < iters; i++ {
			fn(i)
		}
	})
	return float64(wall) / float64(iters)
}

// probeEngine drives a bare simcore.Engine with depth self-rescheduling
// no-op timers of the given period, so the queue holds a steady depth of
// events, and reports wall ns per executed event. A short period keeps the
// events in the wheel's first level (paper-scale pacing and interval
// timers); a 2 s period parks them in the second level and makes every one
// cascade, as the mesh's timers do.
func probeEngine(c *ctx, out *layerOut, metric string, depth int, period time.Duration) {
	events := 2_000_000
	if c.smoke {
		events, depth = 40_000, max(depth/50, 8)
	}
	eng := simcore.NewEngine()
	var tick func(any)
	tick = func(any) { eng.ScheduleArgAfter(period, tick, nil) }
	rng := simcore.NewRNG(c.seed)
	for i := 0; i < depth; i++ {
		eng.ScheduleArg(time.Duration(rng.Range(0, float64(period))), tick, nil)
	}
	horizon := time.Duration(float64(events) / float64(depth) * float64(period))
	eng.Run(period) // let the queue reach its steady shape
	var n int
	wall := timeIt(func() { n = eng.Run(period + horizon) })
	out.set(metric, float64(wall)/float64(n))
}

// fixedWindow is a controller that does nothing: a constant window, no
// pacing. Under it netsim's per-packet cost is all that runs.
type fixedWindow struct{ cwnd float64 }

func (fixedWindow) Name() string        { return "fixed-window" }
func (fixedWindow) Init(time.Duration)  {}
func (fixedWindow) OnAck(cc.Ack)        {}
func (fixedWindow) OnLoss(cc.Loss)      {}
func (w fixedWindow) CWND() float64     { return w.cwnd }
func (fixedWindow) PacingRate() float64 { return 0 }

// probeNetsimPacket runs one flow with a no-op controller over one 1 Gbps
// link for 2 s and reports wall ns per acknowledged packet.
func probeNetsimPacket(c *ctx, out *layerOut) {
	horizon := 2 * time.Second
	if c.smoke {
		horizon = 40 * time.Millisecond
	}
	n := netsim.New(netsim.Config{Seed: c.seed})
	link := n.AddLink(netsim.LinkConfig{Rate: 1e9, Delay: 10 * time.Millisecond, BufferBytes: 4 << 20})
	f := n.AddFlow(netsim.FlowConfig{
		Name: "probe", Path: []*netsim.Link{link},
		// One bandwidth-delay product keeps the link busy without a queue.
		Alg: fixedWindow{cwnd: 1e9 / 8 * 0.020 / netsim.DefaultPacketSize},
	})
	wall := timeIt(func() { n.Run(horizon) })
	if acked := f.Stats().AckedPackets; acked > 0 {
		out.set("netsim.ns_per_packet", float64(wall)/float64(acked))
	} else {
		out.failf("netsim packet probe acknowledged nothing")
	}
}

// scratchDir makes a fresh directory under .bench_build in the working
// directory; the benchmark writes nowhere else.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}
