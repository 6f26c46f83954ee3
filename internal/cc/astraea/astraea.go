// Package astraea implements the Astraea baseline (Liao et al.,
// EuroSys'24): a fairness-oriented DRL congestion controller whose state
// includes throughput-related features — the flow's throughput, its
// historical maximum thr_max, and the ratio thr/thr_max — on top of delay
// and loss signals. The multi-agent training reward teaches flows to yield
// according to their throughput, which gives excellent fairness *inside*
// the training domain.
//
// Those same throughput features are exactly what breaks generalization
// (the paper's Fig. 1 and §2.2): normalized against the training-domain
// maximum, they saturate on faster links, so all flows on a 350 Mbps
// bottleneck look identically "large" and the learned differentiation
// vanishes. The SurrogatePolicy encodes that converged behaviour, with the
// saturation made explicit via trainedMaxThr (see DESIGN.md).
package astraea

import (
	"time"

	"repro/internal/cc"
)

// HistoryLen is the number of stacked intervals in the state.
const HistoryLen = 8

// FeaturesPerInterval is the per-interval feature count: throughput
// (normalized by the training max), thr/thr_max, latency ratio, latency
// gradient, loss rate.
const FeaturesPerInterval = 5

// StateDim is the policy input width.
const StateDim = HistoryLen * FeaturesPerInterval

// Policy maps Astraea's state to a rate-change action in [-1, 1].
type Policy interface {
	Act(state []float64) float64
}

// The controller's parameters mirror the §5 retraining setup.
const (
	interval = 30 * time.Millisecond // control interval
	alpha    = 0.025                 // multiplicative step size
	// trainedMaxThr is the maximum throughput seen in training (Table 1:
	// 100 Mbps); throughput features are normalized against it and clamp
	// at 1 beyond it.
	trainedMaxThr = 100e6
)

// Astraea is the controller. Construct with New.
type Astraea struct {
	policy Policy

	cwnd     float64
	pacing   float64
	mss      float64
	minRTT   time.Duration
	prevRTT  time.Duration
	thrMax   float64 // the flow's historically observed max throughput
	lastGrow time.Duration

	history   []float64
	lastState []float64
}

// New returns an Astraea controller (nil policy selects the surrogate).
func New(policy Policy) *Astraea {
	a := &Astraea{
		cwnd:     10,
		mss:      1500,
		history:  make([]float64, StateDim),
		policy:   policy,
		lastGrow: -time.Hour, // first startup doubling is always allowed
	}
	if a.policy == nil {
		a.policy = NewSurrogatePolicy()
	}
	return a
}

// Name implements cc.Algorithm.
func (a *Astraea) Name() string { return "astraea" }

// Init implements cc.Algorithm.
func (a *Astraea) Init(time.Duration) {}

// OnAck implements cc.Algorithm.
func (a *Astraea) OnAck(k cc.Ack) {
	if k.Bytes > 0 {
		a.mss = float64(k.Bytes)
	}
}

// OnLoss implements cc.Algorithm.
func (a *Astraea) OnLoss(cc.Loss) {}

// ControlInterval implements cc.IntervalAlgorithm.
func (a *Astraea) ControlInterval() time.Duration { return interval }

// OnInterval implements cc.IntervalAlgorithm.
func (a *Astraea) OnInterval(s cc.IntervalStats) {
	if s.FlowMinRTT > 0 {
		a.minRTT = s.FlowMinRTT
	}
	if s.AckedPackets == 0 {
		if s.LostPackets > 0 {
			a.applyAction(-1)
		} else {
			// Startup doubling, at most once per RTT (feedback lags one
			// round trip; doubling per 30 ms interval would overshoot
			// blindly) and bounded.
			period := interval
			if a.minRTT > period {
				period = a.minRTT
			}
			if s.Now-a.lastGrow >= period {
				a.lastGrow = s.Now
				a.cwnd *= 2
				if a.cwnd > 1<<17 {
					a.cwnd = 1 << 17
				}
			}
		}
		a.updatePacing(s)
		return
	}

	thr := s.DeliveryRate()
	if thr > a.thrMax {
		a.thrMax = thr
	}
	var latGrad float64
	if a.prevRTT > 0 {
		latGrad = (s.AvgRTT - a.prevRTT).Seconds() / s.Interval.Seconds()
	}
	a.prevRTT = s.AvgRTT
	latRatio := 1.0
	if a.minRTT > 0 {
		latRatio = float64(s.AvgRTT) / float64(a.minRTT)
	}

	// The throughput features that anchor Astraea's fairness — and clamp
	// outside the training domain.
	thrNorm := cc.Clamp(thr/trainedMaxThr, 0, 1)
	thrRel := 0.0
	if a.thrMax > 0 {
		thrRel = thr / a.thrMax
	}

	copy(a.history, a.history[FeaturesPerInterval:])
	n := len(a.history)
	a.history[n-5] = thrNorm
	a.history[n-4] = cc.Clamp(thrRel, 0, 1)
	a.history[n-3] = cc.Clamp(latRatio-1, 0, 10)
	a.history[n-2] = cc.Clamp(latGrad, -1, 1)
	a.history[n-1] = cc.Clamp(s.LossRate(), 0, 1)

	a.lastState = append(a.lastState[:0], a.history...)
	act := cc.Clamp(a.policy.Act(a.lastState), -1, 1)
	a.applyAction(act)
	a.updatePacing(s)
}

func (a *Astraea) applyAction(act float64) {
	if act >= 0 {
		a.cwnd *= 1 + alpha*act
	} else {
		a.cwnd /= 1 - alpha*act
	}
	if a.cwnd < 2 {
		a.cwnd = 2
	}
	if a.cwnd > 1<<20 {
		a.cwnd = 1 << 20
	}
}

func (a *Astraea) updatePacing(s cc.IntervalStats) {
	rtt := s.AvgRTT
	if rtt == 0 {
		rtt = a.minRTT
	}
	if rtt == 0 {
		return
	}
	a.pacing = a.cwnd * a.mss * 8 / rtt.Seconds()
}

// CWND implements cc.Algorithm.
func (a *Astraea) CWND() float64 { return a.cwnd }

// PacingRate implements cc.Algorithm.
func (a *Astraea) PacingRate() float64 { return a.pacing }

// LastState exposes the most recent policy input (training harness).
func (a *Astraea) LastState() []float64 { return a.lastState }

// Reward is Astraea's per-flow reward shape: throughput (normalized to the
// training domain) minus delay and loss penalties; the published system
// adds a multi-agent fairness term computed across co-trained flows, which
// the training harness supplies externally.
func Reward(thrBps float64, rtt, rttMin time.Duration, loss float64) float64 {
	queue := (rtt - rttMin).Seconds()
	return thrBps/trainedMaxThr - 5*queue - 10*loss
}

// SurrogatePolicy encodes the converged Astraea behaviour: inside the
// training domain, flows respond to congestion in proportion to their
// throughput features (large flows yield, small flows push — near-perfect
// fairness); beyond the domain the clamped thrNorm feature makes every flow
// look maximal and the differentiation disappears, freezing whatever
// unequal shares the flows happened to hold (Fig. 1b).
type SurrogatePolicy struct{}

// NewSurrogatePolicy builds the surrogate.
func NewSurrogatePolicy() *SurrogatePolicy { return &SurrogatePolicy{} }

// Act implements Policy.
func (p *SurrogatePolicy) Act(state []float64) float64 {
	n := len(state)
	thrNorm := state[n-5]
	latRatio := state[n-3]
	loss := state[n-1]
	var grad float64
	var cnt int
	for i := 3; i < n; i += FeaturesPerInterval {
		grad += state[i]
		cnt++
	}
	if cnt > 0 {
		grad /= float64(cnt)
	}
	congestion := 6*cc.Clamp(grad, 0, 1) + 2*cc.Clamp(latRatio-0.15, 0, 2) + 30*loss
	if congestion > 0.05 {
		// Yield in proportion to the (clamped) throughput feature: in
		// domain this is the fairness differentiation; out of domain
		// thrNorm == 1 for everyone and the differentiation is gone.
		return cc.Clamp(-congestion*(0.25+0.75*thrNorm), -1, 0)
	}
	// Probe harder the smaller the flow believes itself to be.
	return cc.Clamp(0.2+0.8*(1-thrNorm), 0, 1)
}
