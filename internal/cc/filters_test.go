package cc

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowedMaxExpiry(t *testing.T) {
	w := NewWindowedMax(10 * time.Second)
	w.Update(0, 5)
	w.Update(1*time.Second, 3)
	if got := w.Value(); got != 5 {
		t.Fatalf("max %v, want 5", got)
	}
	// 5 was recorded at t=0; at t=11s it is older than the window.
	w.Update(11*time.Second, 2)
	if got := w.Value(); got != 3 {
		t.Fatalf("max after expiry %v, want 3", got)
	}
}

func TestWindowedMaxIsMaxOfRecentSamples(t *testing.T) {
	if err := quick.Check(func(raw []uint16) bool {
		w := NewWindowedMax(100 * time.Millisecond)
		type sample struct {
			at time.Duration
			v  float64
		}
		var hist []sample
		now := time.Duration(0)
		for _, r := range raw {
			now += time.Duration(r%20) * time.Millisecond
			v := float64(r % 997)
			w.Update(now, v)
			hist = append(hist, sample{now, v})
			naive := math.Inf(-1)
			for _, h := range hist {
				if now-h.at <= 100*time.Millisecond {
					naive = math.Max(naive, h.v)
				}
			}
			if w.Value() != naive {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowedMinRTT(t *testing.T) {
	w := NewWindowedMinRTT(10 * time.Second)
	w.Update(0, 30*time.Millisecond)
	w.Update(time.Second, 50*time.Millisecond)
	if got := w.Value(); got != 30*time.Millisecond {
		t.Fatalf("min %v, want 30ms", got)
	}
	w.Update(12*time.Second, 40*time.Millisecond)
	if got := w.Value(); got != 40*time.Millisecond {
		t.Fatalf("min after expiry %v, want 40ms", got)
	}
}

func TestWindowedMinRTTLifetime(t *testing.T) {
	w := NewWindowedMinRTT(0) // never expires
	w.Update(0, 30*time.Millisecond)
	w.Update(time.Hour, 50*time.Millisecond)
	if got := w.Value(); got != 30*time.Millisecond {
		t.Fatalf("lifetime min %v, want 30ms", got)
	}
}

func TestIntervalStatsThroughput(t *testing.T) {
	s := IntervalStats{Interval: 100 * time.Millisecond, AckedBytes: 125000}
	// 125000 bytes in 0.1 s = 10 Mbit/s.
	if got := s.Throughput(); math.Abs(got-10e6) > 1 {
		t.Fatalf("throughput %v, want 10e6", got)
	}
	if (IntervalStats{}).Throughput() != 0 {
		t.Fatal("zero-interval throughput not 0")
	}
}

func TestIntervalStatsLossRate(t *testing.T) {
	s := IntervalStats{AckedPackets: 90, LostPackets: 10}
	if got := s.LossRate(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("loss rate %v, want 0.1", got)
	}
	if (IntervalStats{}).LossRate() != 0 {
		t.Fatal("empty-interval loss rate not 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}
