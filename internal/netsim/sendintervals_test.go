package netsim

import (
	"testing"
	"time"

	"repro/internal/cc"
)

// recordingIA is an interval algorithm that records every delivered
// interval for inspection.
type recordingIA struct {
	cc.Manual
	interval time.Duration
	stats    []cc.IntervalStats
}

func (r *recordingIA) ControlInterval() time.Duration { return r.interval }
func (r *recordingIA) OnInterval(s cc.IntervalStats)  { r.stats = append(r.stats, s) }
func (r *recordingIA) Name() string                   { return "recorder" }

func TestSendIntervalConservation(t *testing.T) {
	// Every packet sent in an interval must surface as acked or lost in
	// that interval's delivered statistics — across loss and queueing.
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(15e6)
	n := New(Config{Seed: 3})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 20 * time.Millisecond, BufferBytes: 40_000, LossRate: 0.01})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(20 * time.Second)

	if len(rec.stats) < 100 {
		t.Fatalf("only %d intervals delivered", len(rec.stats))
	}
	var totalSent, totalAcked, totalLost int64
	for i, s := range rec.stats {
		if s.AckedPackets+s.LostPackets != s.SentPackets {
			t.Fatalf("interval %d: sent %d != acked %d + lost %d",
				i, s.SentPackets, s.AckedPackets, s.LostPackets)
		}
		totalSent += s.SentPackets
		totalAcked += s.AckedPackets
		totalLost += s.LostPackets
	}
	if totalLost == 0 {
		t.Fatal("no losses despite oversending with random loss")
	}
	if totalAcked+totalLost != totalSent {
		t.Fatal("global conservation violated")
	}
}

func TestSendIntervalsDeliveredInOrderAndOnTime(t *testing.T) {
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(5e6)
	n := New(Config{Seed: 4})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 50 * time.Millisecond, BufferBytes: 100_000})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(10 * time.Second)

	var prev time.Duration
	for i, s := range rec.stats {
		if s.Now < prev {
			t.Fatalf("interval %d delivered at %v before previous %v", i, s.Now, prev)
		}
		prev = s.Now
	}
	// Delivery lags the send interval by roughly one RTT (100 ms base):
	// with 30 ms intervals, interval k closes at (k+1)*30ms and should be
	// delivered within a few hundred ms after.
	if rec.stats[10].Now > 2*time.Second {
		t.Fatalf("interval 10 delivered only at %v", rec.stats[10].Now)
	}
}

func TestSendIntervalEnforcedRateSnapshot(t *testing.T) {
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(8e6)
	n := New(Config{Seed: 5})
	l := n.AddLink(LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(5 * time.Second)
	for i, s := range rec.stats {
		if s.SentPackets > 0 && s.EnforcedRateBps != 8e6 {
			t.Fatalf("interval %d enforced rate %v, want 8e6", i, s.EnforcedRateBps)
		}
	}
}

func TestSendIntervalDeliverySpanReflectsBottleneck(t *testing.T) {
	// Oversending at 2x: each interval's packets drain at link rate, so the
	// delivery rate ≈ capacity, well below the send rate.
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(20e6)
	n := New(Config{Seed: 6})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 200_000})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(10 * time.Second)
	late := rec.stats[len(rec.stats)/2:]
	var sumRate float64
	var cnt int
	for _, s := range late {
		if s.AckedPackets >= 5 {
			sumRate += s.DeliveryRate()
			cnt++
		}
	}
	rate := sumRate / float64(cnt)
	if rate < 8e6 || rate > 12e6 {
		t.Fatalf("delivery rate %v, want ~capacity 10e6 (send rate 20e6)", rate)
	}
}

func TestSendIntervalDeliveryRateTracksSendWhenIdleLink(t *testing.T) {
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(8e6)
	n := New(Config{Seed: 7})
	l := n.AddLink(LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 200_000})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(10 * time.Second)
	late := rec.stats[len(rec.stats)/2:]
	var sumRate float64
	var cnt int
	for _, s := range late {
		if s.AckedPackets >= 5 {
			sumRate += s.DeliveryRate()
			cnt++
		}
	}
	rate := sumRate / float64(cnt)
	// On an underutilized link the delivery spacing mirrors the send
	// spacing: delivery rate ≈ send rate.
	if rate < 5e6 || rate > 12e6 {
		t.Fatalf("delivery rate %v, want ~send rate 8e6", rate)
	}
}

func TestEmptyIntervalsStillDelivered(t *testing.T) {
	// A rate so low that most 30 ms intervals carry no packets: empty
	// intervals must still be delivered (Jury's slow-start depends on it).
	rec := &recordingIA{interval: 30 * time.Millisecond}
	rec.Manual = *cc.NewManual(100e3) // ~8 packets/second
	n := New(Config{Seed: 8})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: rec})
	n.Run(3 * time.Second)
	empty := 0
	for _, s := range rec.stats {
		if s.SentPackets == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no empty intervals delivered at 100 kbit/s")
	}
}

// TestIntervalRingStaysPowerOfTwo: slot masks the interval index with
// len(ring)-1, which is the index modulo the ring length only while that
// length is a power of two — from sendIntervalMin through every doubling
// to the sendIntervalRing cap. A full window of live intervals must also be
// found at slot(idx) after each grow.
func TestIntervalRingStaysPowerOfTwo(t *testing.T) {
	tr := newIntervalTracker(&recordingIA{interval: 30 * time.Millisecond})
	base := int64(1_000_003) // an arbitrary, non-aligned window start
	for grows := 0; ; grows++ {
		n := len(tr.ring)
		if n <= 0 || n&(n-1) != 0 {
			t.Fatalf("after %d grows the ring holds %d slots, not a power of two", grows, n)
		}
		for idx := base; idx < base+int64(n); idx++ {
			if s := tr.slot(idx); s != &tr.ring[idx%int64(n)] {
				t.Fatalf("ring of %d: slot(%d) is not slot idx mod %d", n, idx, n)
			}
			*tr.slot(idx) = sendInterval{used: true, idx: idx}
		}
		tr.grow()
		for idx := base; idx < base+int64(n); idx++ {
			if s := tr.slot(idx); !s.used || s.idx != idx {
				t.Fatalf("grow from %d slots lost interval %d", n, idx)
			}
		}
		if n == sendIntervalRing {
			if len(tr.ring) != sendIntervalRing {
				t.Fatalf("ring grew past its cap: %d slots", len(tr.ring))
			}
			return
		}
		base += int64(n) + 7
	}
}
