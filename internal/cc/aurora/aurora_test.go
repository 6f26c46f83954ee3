package aurora

import (
	"testing"
	"time"

	"repro/internal/cc"
)

func mkStats(acked int64, rtt time.Duration, lost, sent int64) cc.IntervalStats {
	return cc.IntervalStats{
		Interval:     30 * time.Millisecond,
		AckedBytes:   acked * 1500,
		AckedPackets: acked,
		SentBytes:    sent * 1500,
		SentPackets:  sent,
		LostPackets:  lost,
		AvgRTT:       rtt,
		MinRTT:       rtt,
		FlowMinRTT:   30 * time.Millisecond,
		DeliverySpan: 30 * time.Millisecond,
	}
}

func TestProbesWhenUncongested(t *testing.T) {
	a := New(nil)
	a.Init(0)
	r0 := a.Rate()
	for i := 0; i < 50; i++ {
		a.OnInterval(mkStats(100, 30*time.Millisecond, 0, 100))
	}
	if a.Rate() <= r0 {
		t.Fatalf("rate did not grow: %v -> %v", r0, a.Rate())
	}
}

func TestBacksOffOnLatencyGrowth(t *testing.T) {
	a := New(nil)
	a.Init(0)
	for i := 0; i < 20; i++ {
		a.OnInterval(mkStats(100, 30*time.Millisecond, 0, 100))
	}
	r := a.Rate()
	// RTT ramping up steeply.
	for i := 1; i <= 20; i++ {
		rtt := 30*time.Millisecond + time.Duration(i)*5*time.Millisecond
		a.OnInterval(mkStats(100, rtt, 0, 100))
	}
	if a.Rate() >= r {
		t.Fatalf("rate did not back off under latency growth: %v -> %v", r, a.Rate())
	}
}

func TestBacksOffOnHeavyLoss(t *testing.T) {
	a := New(nil)
	a.Init(0)
	for i := 0; i < 20; i++ {
		a.OnInterval(mkStats(100, 30*time.Millisecond, 0, 100))
	}
	r := a.Rate()
	for i := 0; i < 10; i++ {
		a.OnInterval(mkStats(80, 30*time.Millisecond, 20, 100))
	}
	if a.Rate() >= r {
		t.Fatalf("rate did not back off under heavy loss: %v -> %v", r, a.Rate())
	}
}

func TestOutOfDomainProbingStalls(t *testing.T) {
	// The published generalization failure (Fig. 10a): probing stops once
	// the rate leaves ~3x the training envelope.
	a := New(nil)
	a.Init(0)
	a.rate = 3.5 * trainedMaxRate
	r := a.Rate()
	for i := 0; i < 50; i++ {
		a.OnInterval(mkStats(1000, 30*time.Millisecond, 0, 1000))
	}
	if a.Rate() > r {
		t.Fatalf("out-of-domain rate kept growing: %v -> %v", r, a.Rate())
	}
}

func TestBlackoutHalvesViaAction(t *testing.T) {
	a := New(nil)
	a.Init(0)
	a.rate = 50e6
	a.OnInterval(cc.IntervalStats{Interval: 30 * time.Millisecond, SentPackets: 100, LostPackets: 100})
	if a.Rate() >= 50e6 {
		t.Fatal("blackout did not reduce the rate")
	}
}

func TestRewardShape(t *testing.T) {
	if Reward(50e6, 30*time.Millisecond, 0) <= Reward(10e6, 30*time.Millisecond, 0) {
		t.Fatal("reward not increasing in throughput")
	}
	if Reward(50e6, 100*time.Millisecond, 0) >= Reward(50e6, 30*time.Millisecond, 0) {
		t.Fatal("reward not penalizing latency")
	}
	if Reward(50e6, 30*time.Millisecond, 0.05) >= Reward(50e6, 30*time.Millisecond, 0) {
		t.Fatal("reward not penalizing loss")
	}
}

func TestStateDimAndIdentity(t *testing.T) {
	a := New(nil)
	a.Init(0)
	a.OnInterval(mkStats(100, 30*time.Millisecond, 0, 100))
	if len(a.LastState()) != StateDim {
		t.Fatalf("state dim %d, want %d", len(a.LastState()), StateDim)
	}
	if a.Name() != "aurora" {
		t.Fatal("name wrong")
	}
	if a.CWND() < 10 {
		t.Fatal("cwnd floor missing")
	}
}

func TestRateBounds(t *testing.T) {
	a := New(nil)
	for i := 0; i < 2000; i++ {
		a.applyAction(-1)
	}
	if a.Rate() < 0.1e6 {
		t.Fatalf("rate %v fell through the floor", a.Rate())
	}
}
