package rl

import (
	"testing"

	"repro/internal/simcore"
)

// reusingEnv mutates one observation buffer in place on every Reset/Step,
// the worst case the collector's defensive copies must tolerate. Its reward
// equals the state value at step time, so any transition whose stored State
// was later mutated is detectable as State[0] != Reward.
type reusingEnv struct {
	obs  []float64
	tick float64
}

func (e *reusingEnv) Reset() []float64 {
	if e.obs == nil {
		e.obs = make([]float64, 1)
	}
	e.tick++
	e.obs[0] = e.tick
	return e.obs
}

func (e *reusingEnv) Step(action []float64) ([]float64, float64, bool) {
	reward := e.obs[0]
	e.tick++
	e.obs[0] = e.tick // clobbers the buffer previously returned as "state"
	return e.obs, reward, false
}

func TestCollectCopiesEnvBuffers(t *testing.T) {
	// Drive Train's collector directly against the buffer-reusing env. The
	// reward is computed from the live state at step time, so a stored
	// State that still equals the reward proves collect copied it before
	// the env clobbered its buffer; without the copies every transition
	// would hold the env's final tick value.
	env := &reusingEnv{}
	state := env.Reset()
	trs, _, endState := collect(env, state, nil, 1, 32, 0, simcore.NewRNG(23))
	if len(trs) != 32 {
		t.Fatalf("collected %d transitions, want 32", len(trs))
	}
	for i, tr := range trs {
		if tr.State[0] != tr.Reward {
			t.Fatalf("transition %d: stored State %v mutated after the fact (reward %v)", i, tr.State[0], tr.Reward)
		}
		if tr.NextState[0] != tr.Reward+1 {
			t.Fatalf("transition %d: stored NextState %v mutated (want %v)", i, tr.NextState[0], tr.Reward+1)
		}
	}
	if endState[0] != trs[len(trs)-1].NextState[0] {
		t.Fatalf("endState %v does not match last NextState %v", endState[0], trs[len(trs)-1].NextState[0])
	}
}

// TestCollectAllocsPerStep pins what a policy-driven collection step may
// allocate: the action and the next observation the replay buffer keeps,
// and nothing for the forward pass itself (it runs in the collector's own
// scratch). The difference of two run lengths cancels collect's fixed
// set-up allocations.
func TestCollectAllocsPerStep(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.Seed = 3
	policy := NewTD3(cfg).Actor
	env := &reusingEnv{}
	state := env.Reset()
	rng := simcore.NewRNG(24)
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(10, func() {
			collect(env, state, policy, 1, steps, 0.1, rng)
		})
	}
	const extra = 128
	if perStep := (allocs(2*extra) - allocs(extra)) / extra; perStep != 2 {
		t.Fatalf("collect allocates %v per step, want 2 (stored action + cloned observation)", perStep)
	}
}

// BenchmarkTD3Update times one Update at the sizes the trainer really uses
// (Table 2: 16-128-128-2 actor, 18-128-128-1 critics, batch 64). The agent
// sizes its pool from GOMAXPROCS, so `-cpu 1,2` compares the serial path
// with the pooled one; the weights are bit-identical either way.
func BenchmarkTD3Update(b *testing.B) {
	cfg := DefaultConfig(16, 2)
	cfg.Seed = 31
	agent := NewTD3(cfg)
	defer agent.Close()
	buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 1024, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update(buf)
	}
}
