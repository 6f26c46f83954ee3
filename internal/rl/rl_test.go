package rl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/simcore"
)

func TestReplayBufferRingEviction(t *testing.T) {
	b := NewReplayBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("len %d, want 3", b.Len())
	}
	rng := simcore.NewRNG(1)
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		for _, j := range b.SampleIndices(rng, 3) {
			seen[b.At(j).Reward] = true
		}
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted transition %v still sampled", old)
		}
	}
	for _, kept := range []float64{2, 3, 4} {
		if !seen[kept] {
			t.Fatalf("live transition %v never sampled", kept)
		}
	}
}

func TestReplayBufferSampleUniform(t *testing.T) {
	b := NewReplayBuffer(10)
	for i := 0; i < 10; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	rng := simcore.NewRNG(2)
	counts := map[float64]int{}
	const draws = 20000
	for i := 0; i < draws/10; i++ {
		for _, j := range b.SampleIndices(rng, 10) {
			counts[b.At(j).Reward]++
		}
	}
	for r, c := range counts {
		freq := float64(c) / draws
		if math.Abs(freq-0.1) > 0.02 {
			t.Fatalf("transition %v sampled with freq %v, want ~0.1", r, freq)
		}
	}
}

// testConfig is DefaultConfig(stateDim, actionDim) with the given hidden
// widths and seed.
func testConfig(stateDim, actionDim int, hidden []int, seed uint64) Config {
	cfg := DefaultConfig(stateDim, actionDim)
	cfg.Hidden, cfg.Seed = hidden, seed
	return cfg
}

func TestActClipsToActionBox(t *testing.T) {
	agent := NewTD3(testConfig(3, 2, []int{8}, 3))
	scratch, rng := nn.NewScratch(agent.Actor), simcore.NewRNG(3)
	if err := quick.Check(func(a, b, c float64) bool {
		s := []float64{sane(a), sane(b), sane(c)}
		act := forwardWithNoise(agent.Actor, scratch, s, 2.0, rng) // huge exploration noise
		for _, v := range act {
			if v < -1 || v > 1 {
				return false
			}
		}
		return len(act) == 2
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// greedy is the noiseless policy action for state, evaluated the way the
// collectors evaluate it.
func greedy(agent *TD3, state []float64) []float64 {
	return forwardWithNoise(agent.Actor, nn.NewScratch(agent.Actor), state, 0, nil)
}

func sane(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10)
}

func TestActDeterministicWithoutNoise(t *testing.T) {
	agent := NewTD3(testConfig(2, 1, []int{8}, 4))
	s := []float64{0.5, -0.5}
	a1 := greedy(agent, s)
	a2 := greedy(agent, s)
	if a1[0] != a2[0] {
		t.Fatal("noiseless policy not deterministic")
	}
}

func TestUpdateNoopWhenBufferSmall(t *testing.T) {
	agent := NewTD3(testConfig(2, 1, []int{8}, 5))
	buf := NewReplayBuffer(128)
	buf.Add(Transition{State: []float64{0, 0}, Action: []float64{0}, NextState: []float64{0, 0}})
	if got := agent.Update(buf); got != 0 {
		t.Fatalf("update on tiny buffer returned %v", got)
	}
}

// banditEnv is a one-step environment with known optimum: reward is
// -(a - target(s))^2, where target depends on the (single) state bit.
type banditEnv struct {
	rng   *simcore.RNG
	state []float64
}

func (e *banditEnv) target() float64 {
	if e.state[0] > 0 {
		return 0.6
	}
	return -0.4
}

func (e *banditEnv) Reset() []float64 {
	if e.rng.Bernoulli(0.5) {
		e.state = []float64{1}
	} else {
		e.state = []float64{-1}
	}
	return e.state
}

func (e *banditEnv) Step(action []float64) ([]float64, float64, bool) {
	d := action[0] - e.target()
	return e.state, -d * d, true
}

func TestTD3SolvesContextualBandit(t *testing.T) {
	if testing.Short() {
		t.Skip("learning-convergence test")
	}
	cfg := testConfig(1, 1, []int{32, 32}, 6)
	cfg.ActorLR, cfg.CriticLR, cfg.Gamma = 1e-3, 2e-3, 0 // one-step
	agent := NewTD3(cfg)
	res, err := Train(agent, func(i int) Env { return &banditEnv{rng: simcore.NewRNG(uint64(i) + 10)} }, TrainConfig{
		Actors:          4,
		Epochs:          60,
		StepsPerActor:   64,
		UpdatesPerEpoch: 64,
		BufferSize:      1 << 17,
		WarmupEpochs:    2,
		NoiseStd:        0.4,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	early := res.EpochRewards[2]
	late := res.EpochRewards[len(res.EpochRewards)-1]
	if late < early {
		t.Fatalf("reward did not improve: early %v late %v", early, late)
	}
	// The learned policy must pick near-optimal actions for both contexts.
	if a := greedy(agent, []float64{1})[0]; math.Abs(a-0.6) > 0.15 {
		t.Fatalf("action for s=+1 is %v, want ~0.6", a)
	}
	if a := greedy(agent, []float64{-1})[0]; math.Abs(a+0.4) > 0.15 {
		t.Fatalf("action for s=-1 is %v, want ~-0.4", a)
	}
	// Epoch rewards include exploration noise (std ~0.3 at the end, i.e.
	// E[-noise²] ≈ -0.09), so only require the noisy mean to be in that
	// ballpark; the noiseless policy checks above are the real assertion.
	if late < -0.2 {
		t.Fatalf("final mean (noisy) reward %v, want ≳ -0.2", late)
	}
}

// chainEnv tests multi-step credit assignment: the agent must push the
// 1-D state toward +1 (reward = state each step, action moves the state).
type chainEnv struct {
	pos   float64
	steps int
}

func (e *chainEnv) Reset() []float64 {
	e.pos = 0
	e.steps = 0
	return []float64{e.pos}
}

func (e *chainEnv) Step(a []float64) ([]float64, float64, bool) {
	e.pos += 0.2 * a[0]
	if e.pos > 1 {
		e.pos = 1
	}
	if e.pos < -1 {
		e.pos = -1
	}
	e.steps++
	return []float64{e.pos}, e.pos, e.steps >= 20
}

func TestTD3LearnsMultiStepCredit(t *testing.T) {
	if testing.Short() {
		t.Skip("learning-convergence test")
	}
	agent := NewTD3(testConfig(1, 1, []int{32, 32}, 8))
	res, err := Train(agent, func(i int) Env { return &chainEnv{} }, TrainConfig{
		Actors:          4,
		Epochs:          50,
		StepsPerActor:   100,
		UpdatesPerEpoch: 50,
		BufferSize:      1 << 17,
		WarmupEpochs:    2,
		NoiseStd:        0.3,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.EpochRewards[len(res.EpochRewards)-1]
	// Optimal policy reaches pos=1 quickly: mean reward ~0.85+. Anything
	// clearly positive shows credit assignment through the chain.
	if last < 0.5 {
		t.Fatalf("final mean reward %v, want ≥0.5", last)
	}
	if a := greedy(agent, []float64{0.5})[0]; a < 0.5 {
		t.Fatalf("policy at pos 0.5 should push hard positive, got %v", a)
	}
}

func TestTrainValidatesConfig(t *testing.T) {
	if _, err := Train(nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	// Train fills no zero field: each non-positive budget is an error, and
	// none of them reaches the environment factory.
	for _, tc := range []struct {
		name string
		edit func(*TrainConfig)
	}{
		{"actors", func(c *TrainConfig) { c.Actors = 0 }},
		{"negative actors", func(c *TrainConfig) { c.Actors = -3 }},
		{"epochs", func(c *TrainConfig) { c.Epochs = 0 }},
		{"steps", func(c *TrainConfig) { c.StepsPerActor = 0 }},
		{"updates", func(c *TrainConfig) { c.UpdatesPerEpoch = 0 }},
		{"buffer", func(c *TrainConfig) { c.BufferSize = 0 }},
		// Budgets that never fill a batch: Update would never run.
		{"fewer transitions than a batch", func(c *TrainConfig) { c.Actors, c.StepsPerActor, c.Epochs = 1, 16, 2 }},
		{"buffer below a batch", func(c *TrainConfig) { c.BufferSize = 63 }},
	} {
		agent := tinyAgent(1)
		cfg := tinyTrainConfig(1)
		tc.edit(&cfg)
		built := false
		_, err := Train(agent, func(int) Env { built = true; return &banditEnv{rng: simcore.NewRNG(1)} }, cfg)
		if err == nil || built {
			t.Errorf("%s: Train returned %v and built an environment: %v", tc.name, err, built)
		}
	}
	// Exactly one batch in all is enough.
	cfg := tinyTrainConfig(2)
	cfg.Actors, cfg.StepsPerActor = 1, 32
	if _, err := Train(tinyAgent(1), func(int) Env { return &banditEnv{rng: simcore.NewRNG(1)} }, cfg); err != nil {
		t.Errorf("one batch of transitions: %v", err)
	}
}

// TestNewTD3KeepsConfig: NewTD3 uses its config as given, so a zero
// discount is a zero discount — one update on non-terminal transitions
// targets the reward alone.
func TestNewTD3KeepsConfig(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.Gamma = 0
	agent := NewTD3(cfg)
	defer agent.Close()
	buf := NewReplayBuffer(cfg.Batch)
	for i := 0; i < cfg.Batch; i++ {
		buf.Add(Transition{State: []float64{0.5}, Action: []float64{0.1}, Reward: 0.7, NextState: []float64{-0.5}})
	}
	agent.Update(buf)
	for i, y := range agent.yBuf {
		if y != 0.7 {
			t.Fatalf("TD target %d is %v with Gamma 0, want the reward 0.7", i, y)
		}
	}
}

func TestNewTD3PanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad dims did not panic")
		}
	}()
	NewTD3(Config{})
}

func TestCriticLearnsValueOfFixedPolicy(t *testing.T) {
	// Terminal one-step transitions with fixed reward 1: Q(s,a) must
	// converge to ~1 everywhere it is trained.
	cfg := testConfig(1, 1, []int{16}, 11)
	cfg.Batch = 32
	agent := NewTD3(cfg)
	buf := NewReplayBuffer(1024)
	rng := simcore.NewRNG(12)
	for i := 0; i < 512; i++ {
		s := []float64{rng.Range(-1, 1)}
		a := []float64{rng.Range(-1, 1)}
		buf.Add(Transition{State: s, Action: a, Reward: 1, NextState: s, Done: true})
	}
	for i := 0; i < 3000; i++ {
		agent.Update(buf)
	}
	if q := agent.critic1.ForwardInto([]float64{0.3, -0.2}, nn.NewScratch(agent.critic1))[0]; math.Abs(q-1) > 0.2 {
		t.Fatalf("critic value %v, want ~1", q)
	}
}
