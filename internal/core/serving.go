package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/cc"
	"repro/internal/nn"
)

// This file is the serving-side glue between trained policies and the
// agentrpc inference daemon: batched NNPolicy inference, an AIMD-safe
// fallback policy for degraded clients, and the loader that turns the
// exported actor file into a servable policy.

// InputDim reports the actor's state dimension; the daemon's swap health
// probe sizes its canonical states by it.
func (p *NNPolicy) InputDim() int { return p.Net.InputDim() }

// DecideBatch runs one batched forward pass over the rows×InputDim()
// row-major state matrix, writing the per-row decisions into mu and delta.
// A row gets the same bits whatever else is in the batch.
//
// It is safe for concurrent use: each call takes a batch scratch of its own
// from the policy's free list and returns it, so the daemon runs every
// connection's decision on that connection's goroutine against one shared
// policy. Once the list holds a scratch per concurrent caller, a call
// allocates nothing.
func (p *NNPolicy) DecideBatch(states []float64, rows int, mu, delta []float64) {
	s := p.scratch.get(p.Net, rows)
	out := p.Net.ForwardBatchInto(states, rows, s)
	w := p.Net.OutputDim()
	for r := 0; r < rows; r++ {
		mu[r] = cc.Clamp(out[r*w], -1, 1)
		delta[r] = cc.Clamp((out[r*w+1]+1)/2, 0, 1)
	}
	p.scratch.put(s)
}

// scratchPool is a mutex-guarded free list of batch scratches. A sync.Pool
// would not do: under the race detector it drops one Put in four on
// purpose, so the daemon's zero-allocation contract could not be checked
// there, and it empties on every GC.
type scratchPool struct {
	mu   sync.Mutex
	free []*nn.BatchScratch
}

// get pops a scratch that fits rows, or builds one; a popped scratch too
// small for rows is dropped.
func (sp *scratchPool) get(net *nn.MLP, rows int) *nn.BatchScratch {
	var s *nn.BatchScratch
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		s = sp.free[n-1]
		sp.free = sp.free[:n-1]
	}
	sp.mu.Unlock()
	if s == nil || s.Rows() < rows {
		s = nn.NewBatchScratch(net, rows)
	}
	return s
}

func (sp *scratchPool) put(s *nn.BatchScratch) {
	sp.mu.Lock()
	sp.free = append(sp.free, s)
	sp.mu.Unlock()
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

// PolicyFromActorFile loads a bare actor network exported as JSON (the
// `jury train -out` artifact) and wraps it as a servable policy. The weights
// are validated finite and the widths StateDim→2 — an actor that would trip
// the daemon's health gate, or panic in Decide, is rejected here, at load
// time, with a useful path in the error.
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
	if err := checkActorWidths(path, &net); err != nil {
		return nil, err
	}
	return &NNPolicy{Net: &net}, nil
}

// checkActorWidths rejects a network that is not a Jury actor at the default
// configuration: Decide feeds it StateDim inputs and reads two outputs (μ, δ).
func checkActorWidths(path string, net *nn.MLP) error {
	stateDim := DefaultConfig().StateDim()
	if in, out := net.InputDim(), net.OutputDim(); in != stateDim || out != 2 {
		return fmt.Errorf("actor %s maps %d inputs to %d outputs; a Jury actor maps %d to 2 (μ, δ)", path, in, out, stateDim)
	}
	return nil
}
