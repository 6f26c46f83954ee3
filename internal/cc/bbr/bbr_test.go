package bbr

import (
	"testing"
	"time"

	"repro/internal/cc"
)

// drive feeds the controller a steady ACK stream corresponding to the given
// delivery rate (bits/s) and RTT for the given duration; returns end time.
func drive(b *BBR, start, dur time.Duration, rate float64, rtt time.Duration) time.Duration {
	const mss = 1500
	gap := time.Duration(float64(mss*8) / rate * float64(time.Second))
	for now := start; now < start+dur; now += gap {
		b.OnAck(cc.Ack{Now: now, SentAt: now - rtt, RTT: rtt, Bytes: mss})
	}
	return start + dur
}

func TestStartupExitsOnBandwidthPlateau(t *testing.T) {
	b := New()
	b.Init(0)
	// Steady 50 Mbps for many RTTs: bandwidth stops growing, STARTUP ends.
	drive(b, time.Millisecond, 2*time.Second, 50e6, 30*time.Millisecond)
	if b.State() == int(stateStartup) {
		t.Fatal("still in STARTUP after a 2s bandwidth plateau")
	}
}

func TestBandwidthEstimateTracksDeliveryRate(t *testing.T) {
	b := New()
	b.Init(0)
	drive(b, time.Millisecond, 2*time.Second, 50e6, 30*time.Millisecond)
	bw := b.btlBw.Value()
	if bw < 40e6 || bw > 60e6 {
		t.Fatalf("btlBw %v, want ~50e6", bw)
	}
}

func TestCwndIsGainTimesBDP(t *testing.T) {
	b := New()
	b.Init(0)
	end := drive(b, time.Millisecond, 3*time.Second, 50e6, 30*time.Millisecond)
	drive(b, end, 2*time.Second, 50e6, 30*time.Millisecond)
	// BDP = 50e6 * 0.030 / 8 / 1500 = 125 packets; cwnd ≈ 2*BDP in ProbeBW.
	w := b.CWND()
	if w < 150 || w > 400 {
		t.Fatalf("cwnd %v, want ~250 (2x BDP)", w)
	}
}

func TestProbeRTTTriggersPeriodically(t *testing.T) {
	b := New()
	b.Init(0)
	sawProbeRTT := false
	now := time.Millisecond
	for i := 0; i < 30; i++ {
		now = drive(b, now, 500*time.Millisecond, 50e6, 30*time.Millisecond)
		if b.State() == int(stateProbeRTT) {
			sawProbeRTT = true
			if b.CWND() != minCwnd {
				t.Fatalf("PROBE_RTT cwnd %v, want %v", b.CWND(), float64(minCwnd))
			}
		}
	}
	if !sawProbeRTT {
		t.Fatal("never entered PROBE_RTT in 15s")
	}
}

func TestPacingGainCyclesInProbeBW(t *testing.T) {
	b := New()
	b.Init(0)
	now := drive(b, time.Millisecond, 3*time.Second, 50e6, 30*time.Millisecond)
	if b.State() != int(stateProbeBW) {
		t.Skipf("not yet in ProbeBW (state %d)", b.State())
	}
	gains := map[float64]bool{}
	for i := 0; i < 40; i++ {
		now = drive(b, now, 30*time.Millisecond, 50e6, 30*time.Millisecond)
		gains[b.pacingGain] = true
	}
	if !gains[1.25] || !gains[0.75] || !gains[1.0] {
		t.Fatalf("gain cycle incomplete: %v", gains)
	}
}

func TestLossIsIgnored(t *testing.T) {
	b := New()
	b.Init(0)
	drive(b, time.Millisecond, time.Second, 50e6, 30*time.Millisecond)
	w := b.CWND()
	for i := 0; i < 100; i++ {
		b.OnLoss(cc.Loss{Now: time.Second, SentAt: 900 * time.Millisecond})
	}
	if b.CWND() != w {
		t.Fatalf("loss changed cwnd: %v -> %v", w, b.CWND())
	}
}

func TestPacingRateFollowsGainTimesBw(t *testing.T) {
	b := New()
	b.Init(0)
	if b.PacingRate() != 0 {
		t.Fatal("pacing before any sample should be 0 (unpaced)")
	}
	drive(b, time.Millisecond, 5*time.Second, 50e6, 30*time.Millisecond)
	rate := b.PacingRate()
	want := b.pacingGain * b.btlBw.Value()
	if rate != want {
		t.Fatalf("pacing %v, want gain*btlBw=%v", rate, want)
	}
}

func TestBBRIdentity(t *testing.T) {
	if New().Name() != "bbr" {
		t.Fatal("name wrong")
	}
}

// TestSteadyAcksAllocFree holds a steady ACK stream to zero allocations once
// the delivery-rate history and the windowed filters have grown to their
// working size: samples leave their fronts by index, and a full array
// compacts in place, so each keeps one backing array. One measured run
// counts every allocation of its 10 s (AllocsPerRun divides by the runs).
func TestSteadyAcksAllocFree(t *testing.T) {
	b := New()
	now := drive(b, 0, 30*time.Second, 50e6, 40*time.Millisecond)
	if n := testing.AllocsPerRun(1, func() {
		now = drive(b, now, 10*time.Second, 50e6, 40*time.Millisecond)
	}); n != 0 {
		t.Fatalf("10 s of ACKs allocate %v times in steady state, want 0", n)
	}
}
