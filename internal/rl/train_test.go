package rl

import (
	"math"
	"testing"

	"repro/internal/simcore"
)

func tinyAgent(seed uint64) *TD3 {
	return NewTD3(testConfig(1, 1, []int{16, 16}, seed))
}

func tinyTrainConfig(epochs int) TrainConfig {
	return TrainConfig{
		Actors:          2,
		Epochs:          epochs,
		StepsPerActor:   64,
		UpdatesPerEpoch: 8,
		BufferSize:      1 << 12,
		WarmupEpochs:    1,
		NoiseStd:        0.3,
		Seed:            7,
	}
}

// nanRewardEnv wraps banditEnv but poisons a fraction of rewards with NaN,
// emulating a diverged reward signal (e.g. a 0/0 in throughput/delay).
type nanRewardEnv struct {
	banditEnv
	n int
}

func (e *nanRewardEnv) Step(a []float64) ([]float64, float64, bool) {
	s, r, d := e.banditEnv.Step(a)
	e.n++
	if e.n%7 == 0 {
		r = math.NaN()
	}
	return s, r, d
}

// TestTrainSurvivesNaNRewards: poisoned batches must be skipped (counted),
// never applied — the weights stay finite throughout.
func TestTrainSurvivesNaNRewards(t *testing.T) {
	agent := tinyAgent(11)
	env := func(i int) Env {
		return &nanRewardEnv{banditEnv: banditEnv{rng: simcore.NewRNG(uint64(i) + 20)}}
	}
	if _, err := Train(agent, env, tinyTrainConfig(4)); err != nil {
		t.Fatal(err)
	}
	if agent.SkippedUpdates() == 0 {
		t.Fatal("NaN rewards never tripped the gradient guard")
	}
	if !agent.Actor.AllFinite() {
		t.Fatal("actor weights went non-finite despite the guard")
	}
	for _, m := range []struct {
		name string
		ok   bool
	}{
		{"critic1", agent.critic1.AllFinite()},
		{"critic2", agent.critic2.AllFinite()},
		{"actor target", agent.actorTarget.AllFinite()},
		{"c1 target", agent.c1Target.AllFinite()},
		{"c2 target", agent.c2Target.AllFinite()},
	} {
		if !m.ok {
			t.Fatalf("%s went non-finite despite the guard", m.name)
		}
	}
}
