package core

import (
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/netsim"
	"repro/internal/rl"
	"repro/internal/simcore"
)

// EnvConfig parameterizes the RL training environment: each episode is one
// emulated scenario sampled from the Table 1 domain (DefaultTrainingDomain),
// with the agent driving one DefaultConfig Jury flow among 2-10 competitors
// (§5: a mix of homogeneous flows and Cubic flows).
type EnvConfig struct {
	Episode time.Duration // episode length
	Seed    uint64
}

// cubicCompetitorProb is the probability that each competitor runs Cubic
// rather than Jury-with-reference-policy. The reference policy stands in for
// "another flow running the current policy" (true self-play would need
// policy snapshots; see DESIGN.md).
const cubicCompetitorProb = 0.3

// DefaultEnvConfig returns the training setup used by `jury train`.
func DefaultEnvConfig(seed uint64) EnvConfig {
	return EnvConfig{Episode: 20 * time.Second, Seed: seed}
}

// TrainingEnv adapts the emulator to the rl.Env interface. Each Step
// enforces one decision range (μ, δ) for one control interval of the
// agent-controlled Jury flow and returns the next stacked state and the
// Eq. 9 reward.
type TrainingEnv struct {
	cfg EnvConfig
	rng *simcore.RNG

	net     *netsim.Network
	jury    *Jury
	capture *capturedPolicy
	endAt   time.Duration
	episode int
}

var _ rl.Env = (*TrainingEnv)(nil)

// NewTrainingEnv returns a training environment for cfg as given.
func NewTrainingEnv(cfg EnvConfig) *TrainingEnv {
	return &TrainingEnv{cfg: cfg, rng: simcore.NewRNG(cfg.Seed ^ 0x7e57)}
}

// Reset implements rl.Env: sample a fresh scenario and run it until the
// agent's policy is first consulted.
func (e *TrainingEnv) Reset() []float64 {
	e.episode++
	d := DefaultTrainingDomain()
	bw := e.rng.Range(d.MinBandwidth, d.MaxBandwidth)
	rtt := time.Duration(e.rng.Range(float64(d.MinRTT), float64(d.MaxRTT)))
	bdp := bw / 8 * rtt.Seconds()
	buf := int(bdp * e.rng.Range(d.MinBufferBDP, d.MaxBufferBDP))
	loss := e.rng.Range(d.MinLoss, d.MaxLoss)
	nFlows := d.MinFlows
	if d.MaxFlows > d.MinFlows {
		nFlows += e.rng.Intn(d.MaxFlows - d.MinFlows + 1)
	}

	e.net = netsim.New(netsim.Config{Seed: e.rng.Uint64()})
	link := e.net.AddLink(netsim.LinkConfig{
		Rate: bw, Delay: rtt / 2, BufferBytes: buf, LossRate: loss,
	})

	e.capture = &capturedPolicy{next: [2]float64{0.5, 0.5}}
	juryCfg := DefaultConfig()
	juryCfg.Seed = e.rng.Uint64()
	e.jury = New(juryCfg, e.capture)
	e.net.AddFlow(netsim.FlowConfig{
		Name: "agent",
		Path: []*netsim.Link{link},
		Alg:  e.jury,
	})
	for i := 1; i < nFlows; i++ {
		start := time.Duration(e.rng.Range(0, float64(e.cfg.Episode)/2))
		var alg cc.Algorithm
		if e.rng.Bernoulli(cubicCompetitorProb) {
			alg = cubic.New()
		} else {
			cfg := DefaultConfig()
			cfg.Seed = e.rng.Uint64()
			alg = New(cfg, NewReferencePolicy())
		}
		e.net.AddFlow(netsim.FlowConfig{
			Name:  "competitor",
			Path:  []*netsim.Link{link},
			Start: start,
			Alg:   alg,
		})
	}
	e.endAt = e.cfg.Episode
	e.runUntilAsked()
	return e.state()
}

// runUntilAsked advances the emulation until the captured policy is
// consulted again or the episode ends.
func (e *TrainingEnv) runUntilAsked() {
	e.capture.asked = false
	step := e.jury.cfg.Interval
	for !e.capture.asked && e.net.Now() < e.endAt {
		e.net.Run(e.net.Now() + step)
	}
}

// state returns a copy of the captured policy input (zeroed if the policy
// was never consulted, e.g. an all-slow-start episode).
func (e *TrainingEnv) state() []float64 {
	if e.capture.lastState == nil {
		return make([]float64, e.jury.cfg.StateDim())
	}
	out := make([]float64, len(e.capture.lastState))
	copy(out, e.capture.lastState)
	return out
}

// Step implements rl.Env: enforce the agent's raw action (2-D in [−1,1]²,
// mapped by ActionToRange) for the next control decision.
func (e *TrainingEnv) Step(action []float64) ([]float64, float64, bool) {
	mu, delta := ActionToRange(action)
	e.capture.next = [2]float64{mu, delta}
	e.runUntilAsked()
	done := e.net.Now() >= e.endAt
	return e.state(), e.jury.LastReward(), done
}

// Jury exposes the agent-controlled controller (diagnostics/tests).
func (e *TrainingEnv) Jury() *Jury { return e.jury }
