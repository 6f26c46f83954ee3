package core

import (
	"time"

	"repro/internal/cc"
)

// Signals is the output of one application of the signal transformation
// block (§3.1) for one control interval.
type Signals struct {
	// DRTTNorm is (RTT_t − RTT_{t−1}) / Δt. By Eq. 1 this equals
	// (Σᵢxᵢ − c)/c, the overload fraction of the bottleneck — dimensionless
	// and identical for every flow sharing the bottleneck.
	DRTTNorm float64
	// LossRatio is (1−L_t)/(1−L_{t−1}) − 1, centred at 0 (0 when the loss
	// rate is unchanged, negative when loss worsens).
	LossRatio float64
	// RateChange is a_{t−1} = x_t/x_{t−1}, the multiplicative sending-rate
	// change the flow enforced.
	RateChange float64
	// ThrChange is thr_t/thr_{t−1}, the corresponding throughput response.
	ThrChange float64
	// Valid is false while the transformer has no previous interval yet or
	// the interval carried no feedback.
	Valid bool
}

// Transformer turns per-interval raw statistics into Jury's normalized
// signals and maintains the stacked history fed to the policy.
type Transformer struct {
	cfg Config

	prevThr      float64
	prevRTT      time.Duration
	prevLoss     float64
	prevSent     int64
	prevEnforced float64
	prevValid    bool

	history      []float64 // ring of 2*HistoryLen entries, oldest first
	historyReady int
}

// NewTransformer returns a transformer for the given config.
func NewTransformer(cfg Config) *Transformer {
	return &Transformer{cfg: cfg, history: make([]float64, cfg.StateDim())}
}

// Update folds in one interval's send-attributed statistics (the emulator
// delivers stats for the packets *sent* during each interval, per Fig. 3)
// and returns the transformed signals. The realized rate change
// SentBytes_t/SentBytes_{t−1} is the enforced x_t/x_{t−1}, and the
// throughput response AckedBytes_t/AckedBytes_{t−1} is its paired feedback.
func (t *Transformer) Update(s cc.IntervalStats) Signals {
	var sig Signals
	// Delivery rate, not acked-volume-per-interval: an interval's extra
	// packets are absorbed by the queue and still delivered, so only the
	// delivery *spacing* reveals whether the bottleneck had headroom.
	thr := s.DeliveryRate()
	loss := s.LossRate()

	if t.prevValid && s.AckedPackets > 0 && t.prevThr > 0 && s.AvgRTT > 0 && t.prevRTT > 0 {
		sig.Valid = true
		sig.DRTTNorm = (s.AvgRTT - t.prevRTT).Seconds() / s.Interval.Seconds()
		sig.LossRatio = (1-loss)/(1-clampLoss(t.prevLoss)) - 1
		sig.ThrChange = thr / t.prevThr
		// The realized sending-rate change. Using the measured bytes (not
		// the enforced pacing value) keeps the rate and throughput signals
		// on the same footing, so that when the bottleneck is underutilized
		// the two track each other *exactly* (every sent packet is acked)
		// and the occupancy estimate is exactly zero.
		if t.prevSent > 0 {
			sig.RateChange = float64(s.SentBytes) / float64(t.prevSent)
		} else {
			sig.RateChange = 1
		}
	}

	if s.AckedPackets > 0 && s.AvgRTT > 0 {
		t.prevThr = thr
		t.prevRTT = s.AvgRTT
		t.prevLoss = loss
		t.prevSent = s.SentBytes
		t.prevEnforced = s.EnforcedRateBps
		t.prevValid = true
	}

	if sig.Valid {
		t.push(sig)
	}
	return sig
}

func clampLoss(l float64) float64 {
	if l >= 0.999 {
		return 0.999
	}
	return l
}

// push appends the policy-facing pair (ΔRTT, loss ratio) to the history.
func (t *Transformer) push(sig Signals) {
	copy(t.history, t.history[2:])
	n := len(t.history)
	t.history[n-2] = cc.Clamp(sig.DRTTNorm, -signalClamp, signalClamp)
	t.history[n-1] = cc.Clamp(sig.LossRatio, -signalClamp, signalClamp)
	if t.historyReady < t.cfg.HistoryLen {
		t.historyReady++
	}
}

// State returns the stacked policy input (a copy), oldest interval first.
func (t *Transformer) State() []float64 {
	return t.StateInto(nil)
}

// StateInto copies the stacked policy input into dst (grown if too small)
// and returns it. Hot paths call it with a reused buffer so one decision per
// control interval does not cost one allocation per control interval.
func (t *Transformer) StateInto(dst []float64) []float64 {
	if cap(dst) < len(t.history) {
		dst = make([]float64, len(t.history))
	}
	dst = dst[:len(t.history)]
	copy(dst, t.history)
	return dst
}

// Ready reports whether the history holds at least one full interval pair.
func (t *Transformer) Ready() bool { return t.historyReady > 0 }
