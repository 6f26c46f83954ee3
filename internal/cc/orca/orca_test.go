package orca

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

func mkStats(acked int64, rtt time.Duration, lost int64, minRTT time.Duration) cc.IntervalStats {
	return cc.IntervalStats{
		Interval:     200 * time.Millisecond,
		AckedBytes:   acked * 1500,
		AckedPackets: acked,
		SentBytes:    acked * 1500,
		SentPackets:  acked,
		LostPackets:  lost,
		AvgRTT:       rtt,
		MinRTT:       rtt,
		FlowMinRTT:   minRTT,
		DeliverySpan: 200 * time.Millisecond,
	}
}

func TestBoostsCubicWhenUnderutilized(t *testing.T) {
	o := New(nil)
	o.Init(0)
	o.minRTT = 30 * time.Millisecond
	// Establish a throughput ceiling, then run below it with no queue.
	o.OnInterval(mkStats(1000, 30*time.Millisecond, 0, 30*time.Millisecond))
	w := o.CWND()
	o.OnInterval(mkStats(500, 30*time.Millisecond, 0, 30*time.Millisecond))
	if o.LastExponent() <= 0 {
		t.Fatalf("exponent %v, want positive boost", o.LastExponent())
	}
	if o.CWND() <= w {
		t.Fatalf("cwnd not boosted: %v -> %v", w, o.CWND())
	}
}

func TestShrinksOnQueueBuildup(t *testing.T) {
	o := New(nil)
	o.Init(0)
	o.minRTT = 30 * time.Millisecond
	o.OnInterval(mkStats(1000, 30*time.Millisecond, 0, 30*time.Millisecond))
	o.cubic.SetCWND(500)
	o.OnInterval(mkStats(1000, 60*time.Millisecond, 0, 30*time.Millisecond))
	if o.LastExponent() >= 0 {
		t.Fatalf("exponent %v with a 2x RTT, want negative", o.LastExponent())
	}
}

func TestOutOfDomainCollapse(t *testing.T) {
	// Base RTT 150 ms (2.5x the training max): the learned layer outputs
	// its collapsed exponent (Fig. 10f).
	o := New(nil)
	o.Init(0)
	o.minRTT = 150 * time.Millisecond
	o.OnInterval(mkStats(1000, 150*time.Millisecond, 0, 150*time.Millisecond))
	if o.LastExponent() != -1 {
		t.Fatalf("out-of-domain exponent %v, want -1", o.LastExponent())
	}
}

func TestLossPathGoesThroughCubic(t *testing.T) {
	o := New(nil)
	o.Init(0)
	// Grow cubic, then hit it with a loss: the hybrid inherits the cut.
	for i := 0; i < 50; i++ {
		o.OnAck(cc.Ack{Now: time.Duration(i) * time.Millisecond, SentAt: 0, RTT: 30 * time.Millisecond, Bytes: 1500})
	}
	w := o.CWND()
	o.OnLoss(cc.Loss{Now: time.Second, SentAt: 900 * time.Millisecond})
	if o.CWND() >= w {
		t.Fatalf("loss did not cut the hybrid window: %v -> %v", w, o.CWND())
	}
}

func TestInDomainUtilization(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 50e6, Delay: 15 * time.Millisecond, BufferBytes: 375_000})
	n.AddFlow(netsim.FlowConfig{Name: "o", Path: []*netsim.Link{l},
		Alg: New(nil)})
	n.Run(60 * time.Second)
	if u := l.Utilization(60 * time.Second); u < 0.8 {
		t.Fatalf("in-domain utilization %v", u)
	}
}

func TestLossyLinkDegradation(t *testing.T) {
	// 1% random loss: CUBIC underneath collapses and the 2^a boost cannot
	// recover full rate (Fig. 10c).
	n := netsim.New(netsim.Config{Seed: 2})
	l := n.AddLink(netsim.LinkConfig{Rate: 50e6, Delay: 15 * time.Millisecond, BufferBytes: 375_000, LossRate: 0.01})
	n.AddFlow(netsim.FlowConfig{Name: "o", Path: []*netsim.Link{l},
		Alg: New(nil)})
	n.Run(60 * time.Second)
	if u := l.Utilization(60 * time.Second); u > 0.75 {
		t.Fatalf("utilization %v at 1%% loss — Orca's documented degradation did not reproduce", u)
	}
}

func TestHighDelayCollapseEndToEnd(t *testing.T) {
	// 200 ms base RTT, far outside the 10-60 ms training range.
	n := netsim.New(netsim.Config{Seed: 3})
	l := n.AddLink(netsim.LinkConfig{Rate: 50e6, Delay: 100 * time.Millisecond, BufferBytes: 1_250_000})
	n.AddFlow(netsim.FlowConfig{Name: "o", Path: []*netsim.Link{l},
		Alg: New(nil)})
	n.Run(60 * time.Second)
	if u := l.Utilization(60 * time.Second); u > 0.5 {
		t.Fatalf("utilization %v at 200ms base RTT — expected out-of-domain collapse", u)
	}
}

func TestIdentity(t *testing.T) {
	o := New(nil)
	if o.Name() != "orca" || o.PacingRate() != 0 {
		t.Fatal("identity wrong")
	}
	if o.ControlInterval() != 200*time.Millisecond {
		t.Fatal("monitor period wrong")
	}
}
