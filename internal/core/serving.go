package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/cc"
	"repro/internal/nn"
	"repro/internal/rl"
)

// This file is the serving-side glue between trained policies and the
// agentrpc inference daemon: batched NNPolicy inference (the daemon's
// minibatch fast path), an AIMD-safe fallback policy for degraded clients,
// and loaders that turn on-disk artifacts (training checkpoints, exported
// actor files) into servable policies.

// InputDim reports the actor's state dimension; the daemon only batches
// requests whose states match it.
func (p *NNPolicy) InputDim() int { return p.Net.InputDim() }

// DecideBatch runs one batched forward pass over the rows×InputDim()
// row-major state matrix, writing the per-row decisions into mu and delta.
// Together with InputDim it implements agentrpc.BatchDecider: one GEMM
// serves every flow whose request queued while the daemon's previous
// execution ran.
//
// Like Decide, it is not safe for concurrent use — the daemon's single
// batcher goroutine is the intended caller.
func (p *NNPolicy) DecideBatch(states []float64, rows int, mu, delta []float64) {
	if p.bscratch == nil || p.bscratch.Rows() < rows {
		p.bscratch = nn.NewBatchScratch(p.Net, rows)
	}
	out := p.Net.ForwardBatchInto(states, rows, p.bscratch)
	w := p.Net.OutputDim()
	for r := 0; r < rows; r++ {
		mu[r] = cc.Clamp(out[r*w], -1, 1)
		delta[r] = cc.Clamp((out[r*w+1]+1)/2, 0, 1)
	}
}

// AIMDPolicy is the conservative fallback served while the learned policy is
// unreachable or unhealthy. It mirrors the Jury controller's own AIMD safe
// mode (core.jury aimdFallback): back off on net loss, otherwise probe
// additively — TCP-friendly by construction, so a degraded flow coexists
// fairly with both healthy Jury flows and classical TCP instead of freezing
// its cwnd at whatever the last learned decision was.
//
// δ = 0 keeps the decision a point, not a range: a fallback flow does not
// participate in the occupancy differentiation it can no longer see.
type AIMDPolicy struct{}

// Decide implements Policy. The state layout is the standard pair stream
// (ΔRTT_norm, lossRatio): any net loss across the window backs off, else
// probe. Works for any even-length state, including an empty one.
func (AIMDPolicy) Decide(state []float64) (float64, float64) {
	var lossSum float64
	for i := 1; i < len(state); i += 2 {
		lossSum += state[i]
	}
	if lossSum < 0 { // net drop over the window
		return -1, 0
	}
	return 1, 0
}

// PolicyFromCheckpoint loads a training checkpoint (rl.SaveCheckpoint) and
// wraps its actor as a servable policy. The weights are validated finite —
// a checkpoint that would trip the daemon's health gate is rejected here,
// at load time, with a useful path in the error.
func PolicyFromCheckpoint(path string) (*NNPolicy, error) {
	ck, err := rl.LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if ck.Actor == nil {
		return nil, fmt.Errorf("checkpoint %s has no actor network", path)
	}
	if !ck.Actor.AllFinite() {
		return nil, fmt.Errorf("checkpoint %s actor has non-finite weights", path)
	}
	return &NNPolicy{Net: ck.Actor}, nil
}

// PolicyFromActorFile loads a bare actor network exported as JSON (the
// `jury train -out` artifact) and wraps it as a servable policy.
func PolicyFromActorFile(path string) (*NNPolicy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var net nn.MLP
	if err := json.Unmarshal(data, &net); err != nil {
		return nil, fmt.Errorf("parse actor %s: %w", path, err)
	}
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("actor %s has no layers", path)
	}
	if !net.AllFinite() {
		return nil, fmt.Errorf("actor %s has non-finite weights", path)
	}
	return &NNPolicy{Net: &net}, nil
}

// NonFiniteProbePolicy wraps a policy and corrupts its μ output whenever the
// first state value exceeds the trigger — a test hook for exercising the
// daemon's non-finite rollback path with a policy that passes the health
// probe. Exported because the chaos harness lives in another package.
type NonFiniteProbePolicy struct {
	Inner   Policy
	Trigger float64
}

// Decide implements Policy.
func (p NonFiniteProbePolicy) Decide(state []float64) (float64, float64) {
	mu, delta := p.Inner.Decide(state)
	if len(state) > 0 && state[0] > p.Trigger {
		return math.NaN(), delta
	}
	return mu, delta
}
