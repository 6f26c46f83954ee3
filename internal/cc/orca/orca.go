// Package orca implements the Orca baseline (Abbasloo et al., SIGCOMM'20):
// hybrid congestion control in which classic CUBIC runs underneath and a
// DRL agent periodically rescales the congestion window, cwnd ←
// cwnd_cubic · 2^a with a ∈ [−1, 1]. The paper's critique (§2.2, Fig. 7h,
// Fig. 10) is that the two layers interleave unscrutinized: the RL override
// erodes CUBIC's fairness guarantees, while CUBIC's loss response drags
// performance down on lossy links, and the learned component collapses when
// the delay leaves its training range. The SurrogatePolicy encodes that
// converged behaviour (see DESIGN.md).
package orca

import (
	"math"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
)

// HistoryLen is the number of stacked monitor intervals in the state.
const HistoryLen = 8

// FeaturesPerInterval is the per-interval feature count: delivery rate
// normalized by the observed max, latency ratio, latency gradient, loss.
const FeaturesPerInterval = 4

// StateDim is the policy input width.
const StateDim = HistoryLen * FeaturesPerInterval

// Policy maps Orca's state to the cwnd exponent a in [-1, 1].
type Policy interface {
	Act(state []float64) float64
}

// The controller's parameters mirror the §5 retraining setup.
const (
	// interval is Orca's monitor period (coarser than Jury's 30 ms).
	interval = 200 * time.Millisecond
	// trainedMaxRTT is the largest base RTT in the training domain
	// (Table 1: 60 ms); beyond ~2x the learned component misbehaves
	// (Fig. 10f shows <20% utilization at high base delay).
	trainedMaxRTT = 60 * time.Millisecond
)

// Orca is the hybrid controller. Construct with New.
type Orca struct {
	policy Policy
	cubic  *cubic.Cubic

	minRTT  time.Duration
	prevRTT time.Duration
	maxThr  float64

	history   []float64
	lastState []float64
	lastExp   float64
}

// New returns an Orca controller (nil policy selects the surrogate).
func New(policy Policy) *Orca {
	o := &Orca{
		cubic:   cubic.New(),
		policy:  policy,
		history: make([]float64, StateDim),
	}
	if o.policy == nil {
		o.policy = NewSurrogatePolicy()
	}
	return o
}

// Name implements cc.Algorithm.
func (o *Orca) Name() string { return "orca" }

// Init implements cc.Algorithm.
func (o *Orca) Init(now time.Duration) { o.cubic.Init(now) }

// OnAck implements cc.Algorithm: the classic layer stays ack-clocked.
func (o *Orca) OnAck(a cc.Ack) {
	if o.minRTT == 0 || a.RTT < o.minRTT {
		o.minRTT = a.RTT
	}
	o.cubic.OnAck(a)
}

// OnLoss implements cc.Algorithm.
func (o *Orca) OnLoss(l cc.Loss) { o.cubic.OnLoss(l) }

// ControlInterval implements cc.IntervalAlgorithm.
func (o *Orca) ControlInterval() time.Duration { return interval }

// OnInterval implements cc.IntervalAlgorithm: the learned layer rescales
// CUBIC's window once per monitor period.
func (o *Orca) OnInterval(s cc.IntervalStats) {
	if s.AckedPackets == 0 {
		return
	}
	thr := s.DeliveryRate()
	if thr > o.maxThr {
		o.maxThr = thr
	}
	var latGrad float64
	if o.prevRTT > 0 {
		latGrad = (s.AvgRTT - o.prevRTT).Seconds() / s.Interval.Seconds()
	}
	o.prevRTT = s.AvgRTT
	latRatio := 1.0
	if o.minRTT > 0 {
		latRatio = float64(s.AvgRTT) / float64(o.minRTT)
	}

	copy(o.history, o.history[FeaturesPerInterval:])
	n := len(o.history)
	thrNorm := 0.0
	if o.maxThr > 0 {
		thrNorm = thr / o.maxThr
	}
	o.history[n-4] = cc.Clamp(thrNorm, 0, 1)
	o.history[n-3] = cc.Clamp(latRatio-1, 0, 10)
	o.history[n-2] = cc.Clamp(latGrad, -1, 1)
	o.history[n-1] = cc.Clamp(s.LossRate(), 0, 1)

	o.lastState = append(o.lastState[:0], o.history...)
	// Out-of-domain detection happens in the surrogate via the latency
	// features; trained policies would see the same saturated inputs.
	exp := cc.Clamp(o.policy.Act(o.lastState), -1, 1)
	if sp, ok := o.policy.(*SurrogatePolicy); ok && sp.outOfDomain(o) {
		exp = -1 // collapsed learned component (Fig. 10f)
	}
	o.lastExp = exp
	target := o.cubic.CWND() * math.Pow(2, exp)
	if exp < -0.5 {
		// A large decrease sets both cwnd and ssthresh in the kernel,
		// re-anchoring CUBIC at the reduced window — the interleaving that
		// lets a misbehaving learned layer drag the hybrid down (§2.2).
		o.cubic.Rebase(target)
	} else {
		o.cubic.SetCWND(target)
	}
}

// CWND implements cc.Algorithm.
func (o *Orca) CWND() float64 { return o.cubic.CWND() }

// PacingRate implements cc.Algorithm: like CUBIC, Orca is ack-clocked.
func (o *Orca) PacingRate() float64 { return 0 }

// LastExponent exposes the last applied 2^a exponent for tests.
func (o *Orca) LastExponent() float64 { return o.lastExp }

// LastState exposes the most recent policy input (training harness).
func (o *Orca) LastState() []float64 { return o.lastState }

// SurrogatePolicy encodes a converged Orca agent: in-domain it nudges CUBIC
// toward full utilization (positive exponents while the queue is shallow,
// negative as latency climbs); out of its trained delay range the learned
// component degrades to strongly negative outputs.
type SurrogatePolicy struct{}

// NewSurrogatePolicy builds the surrogate.
func NewSurrogatePolicy() *SurrogatePolicy { return &SurrogatePolicy{} }

// outOfDomain reports whether the flow's base RTT left the training range.
func (p *SurrogatePolicy) outOfDomain(o *Orca) bool {
	return o.minRTT > 2*trainedMaxRTT
}

// Act implements Policy.
func (p *SurrogatePolicy) Act(state []float64) float64 {
	n := len(state)
	thrNorm := state[n-4]
	latRatio := state[n-3]
	loss := state[n-1]
	var grad float64
	var cnt int
	for i := 2; i < n; i += FeaturesPerInterval {
		grad += state[i]
		cnt++
	}
	if cnt > 0 {
		grad /= float64(cnt)
	}
	switch {
	case loss > 0.02 || grad > 0.05 || latRatio > 0.6:
		return cc.Clamp(-4*grad-0.8*(latRatio-0.3)-5*loss, -1, 0)
	case thrNorm < 0.9 && latRatio < 0.2:
		// CUBIC below the observed ceiling with an empty queue: boost.
		return 0.7
	default:
		return 0.1
	}
}
