package core

import (
	"math"

	"repro/internal/cc"
	"repro/internal/nn"
)

// Policy maps the stacked bandwidth-agnostic state to a decision range:
// mean μ ∈ [−1, 1] and radius δ ∈ [0, 1]. Flows sharing a bottleneck see
// identical states and therefore produce identical ranges — the consensus
// point the post-processing phase differentiates (§2.3).
type Policy interface {
	Decide(state []float64) (mu, delta float64)
}

// NNPolicy adapts a trained actor network (internal/rl TD3 actor): output 0
// is μ directly (tanh ∈ [−1,1]); output 1 maps [−1,1] → [0,1] as δ.
type NNPolicy struct {
	Net *nn.MLP

	// scratch holds the batch scratches DecideBatch is not using (see
	// serving.go); its zero value is empty, so NNPolicy{Net: ...} keeps
	// working.
	scratch scratchPool
}

// Decide implements Policy as a one-row DecideBatch, so a decision has the
// same bits whether it is served alone or inside a daemon batch.
func (p *NNPolicy) Decide(state []float64) (float64, float64) {
	var mu, delta [1]float64
	p.DecideBatch(state, 1, mu[:], delta[:])
	return mu[0], delta[0]
}

// ActionToRange converts a raw 2-D agent action in [−1,1]² to (μ, δ) the
// same way NNPolicy does — training code uses it so the replayed actions
// and the deployed policy share one convention.
func ActionToRange(action []float64) (mu, delta float64) {
	return cc.Clamp(action[0], -1, 1), cc.Clamp((action[1]+1)/2, 0, 1)
}

// ReferencePolicy is a deterministic, hand-derived stand-in for a converged
// Jury actor (see DESIGN.md substitutions). It reacts only to the
// bandwidth-agnostic signals, exactly like the learned policy would, and it
// encodes the asymmetric delay-gradient behaviour a policy trained with
// Eq. 9 converges to — the reward's (RTT − RTT_min) term makes standing
// queues costly even though the state only carries RTT *differences*:
//
//   - ΔRTT flat and loss flat: the bottleneck queue is stable (empty at the
//     operating point) — probe up with μ = ProbeGain;
//   - ΔRTT > ε: the queue is building — back off in proportion;
//   - ΔRTT < −ε: the queue is draining — hold (μ = 0) until it empties
//     rather than re-probe into a half-full queue;
//   - loss growth always subtracts with a large gain.
//
// δ is a fixed fraction of the decision range, leaving the fairness
// differentiation entirely to the occupancy post-processing. Because
// fairness in Jury is carried by that post-processing, any policy of this
// shape converges to a fair share; a learned policy only sharpens the
// utilization/latency trade-off.
type ReferencePolicy struct {
	// ProbeGain is μ when the bottleneck shows no congestion.
	ProbeGain float64
	// RTTGain scales the response to the overload fraction ΔRTT/Δt (Eq. 1).
	RTTGain float64
	// RTTEps is the ΔRTT/Δt dead band treated as "flat".
	RTTEps float64
	// LossGain scales the response to loss growth.
	LossGain float64
	// Delta is the constant decision radius.
	Delta float64
}

// NewReferencePolicy returns the tuned reference policy used by the
// experiment harness when no trained weights are supplied.
func NewReferencePolicy() *ReferencePolicy {
	// ProbeGain equals Delta: under flat signals a = μ + (1−2r)·δ =
	// δ·(2−2r), so a flow holding its entire fair share (r→1) holds its
	// rate while smaller flows climb — the calibration a policy trained
	// against the post-processing phase converges to.
	return &ReferencePolicy{ProbeGain: 0.5, RTTGain: 10, RTTEps: 0.02, LossGain: 25, Delta: 0.5}
}

// Decide implements Policy. The state layout is the Transformer's: pairs of
// (ΔRTT_norm, lossRatio) with the most recent pair last.
func (p *ReferencePolicy) Decide(state []float64) (float64, float64) {
	// ΔRTT: average the diffs across the whole window. Consecutive diffs
	// telescope, so this is (RTT_now − RTT_oldest)/window — the per-interval
	// sampling noise of intermediate RTTs cancels and only genuine drift
	// survives.
	var drtt float64
	var n int
	// Loss: sum the loss-ratio signals over the window. Each entry is
	// ≈ ln((1−L_t)/(1−L_{t−1})), so the sum telescopes to the *net* loss
	// change across the window: the symmetric up/down noise of a steady
	// random-loss link cancels (that is how Jury stays efficient on lossy
	// paths, Fig. 10c), while loss onsets and congestion-overflow bursts
	// leave a net drop that triggers the back-off.
	var lossSum float64
	for i := 0; i+1 < len(state); i += 2 {
		drtt += state[i]
		lossSum += state[i+1]
		n++
	}
	if n > 0 {
		drtt /= float64(n)
	}
	netDrop := math.Max(0, -lossSum)
	var mu float64
	switch {
	case drtt > p.RTTEps:
		mu = -p.RTTGain * (drtt - p.RTTEps) // queue building: back off
	case drtt < -p.RTTEps:
		mu = 0 // queue draining: hold until flat
	default:
		mu = p.ProbeGain // flat: probe for bandwidth
	}
	mu -= p.LossGain * netDrop
	return cc.Clamp(mu, -1, 1), p.Delta
}

// capturedPolicy lets a training environment inject agent actions into a
// running Jury controller and observe the states it would feed the policy.
type capturedPolicy struct {
	next      [2]float64 // pending (μ, δ)
	lastState []float64
	asked     bool
}

// Decide implements Policy: report the pending action, record the state.
func (p *capturedPolicy) Decide(state []float64) (float64, float64) {
	p.lastState = state
	p.asked = true
	return p.next[0], p.next[1]
}
