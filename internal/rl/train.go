package rl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/simcore"
)

// TrainObserver receives training-loop telemetry. All methods are called
// synchronously from the training goroutine; implementations must be cheap
// (internal/telemetry's TrainingObserver satisfies this interface). A nil
// Observer field disables the calls entirely.
type TrainObserver interface {
	// EpochEnd fires after each collection/update round with the epoch's
	// statistics and the wall time of its two phases.
	EpochEnd(epoch int, meanReward, tdErr float64, replayLen int, skippedUpdates int64, collectDur, updateDur time.Duration)
}

// TrainConfig drives the distributed training loop of §4: several parallel
// actors collect experience against independent environments while a single
// learner performs batched TD3 updates between collection rounds. Train uses
// every field as given; core.DefaultTrainOptions holds `jury train`'s values.
type TrainConfig struct {
	Actors          int     // parallel experience collectors (paper: 8)
	Epochs          int     // collection/update rounds
	StepsPerActor   int     // env steps per actor per epoch
	UpdatesPerEpoch int     // TD3 updates per epoch
	BufferSize      int     // replay capacity
	WarmupEpochs    int     // epochs with uniform-random actions
	NoiseStd        float64 // exploration noise at epoch 0
	Seed            uint64

	// Progress, if non-nil, is called after each epoch with the mean
	// per-step reward of the epoch's fresh experience and the mean TD error.
	Progress func(epoch int, meanReward, tdErr float64)

	// Observer, if non-nil, receives structured training telemetry
	// (per-epoch statistics and phase timings).
	Observer TrainObserver
}

// TrainResult summarizes a training run.
type TrainResult struct {
	EpochRewards []float64 // mean per-step reward per epoch
	FinalTDErr   float64
}

// noiseDecay is the exploration noise's multiplicative decay per epoch.
const noiseDecay = 0.995

// Train runs the collection/update loop on agent and returns per-epoch
// statistics. envFactory builds an independent environment for actor i; it
// is called once per actor, and environments persist across epochs (they
// re-Reset).
func Train(agent *TD3, envFactory func(actor int) Env, cfg TrainConfig) (*TrainResult, error) {
	switch {
	case agent == nil || envFactory == nil:
		return nil, fmt.Errorf("rl: Train needs an agent and an env factory")
	case cfg.Actors <= 0, cfg.Epochs <= 0, cfg.StepsPerActor <= 0, cfg.UpdatesPerEpoch <= 0, cfg.BufferSize <= 0:
		return nil, fmt.Errorf("rl: Train needs positive actors, epochs, steps, updates and buffer size (got %d, %d, %d, %d, %d)",
			cfg.Actors, cfg.Epochs, cfg.StepsPerActor, cfg.UpdatesPerEpoch, cfg.BufferSize)
	case min(cfg.BufferSize, cfg.Actors*cfg.StepsPerActor*cfg.Epochs) < agent.cfg.Batch:
		// Update waits for a full batch; a run that never holds one would
		// return the untrained actor.
		return nil, fmt.Errorf("rl: Train collects %d transitions (buffer %d), fewer than a batch of %d",
			cfg.Actors*cfg.StepsPerActor*cfg.Epochs, cfg.BufferSize, agent.cfg.Batch)
	}
	// The agent's update helpers are parked goroutines; they must not outlive
	// the run (the agent stays usable and respawns them on demand).
	defer agent.Close()

	noise := cfg.NoiseStd
	res := &TrainResult{}

	buf := NewReplayBuffer(cfg.BufferSize)
	envs := make([]Env, cfg.Actors)
	states := make([][]float64, cfg.Actors)
	for i := range envs {
		envs[i] = envFactory(i)
		states[i] = envs[i].Reset()
	}
	actionDim := agent.cfg.ActionDim

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Snapshot the policy so collectors can run concurrently with no
		// locking; each collector gets its own RNG stream.
		policy := agent.Actor.Clone()
		warmup := epoch < cfg.WarmupEpochs

		var collectStart time.Time
		if cfg.Observer != nil {
			collectStart = time.Now()
		}

		type chunk struct {
			transitions []Transition
			rewardSum   float64
			steps       int
			endState    []float64
		}
		chunks := make([]chunk, cfg.Actors)
		var wg sync.WaitGroup
		for ai := 0; ai < cfg.Actors; ai++ {
			wg.Add(1)
			go func(ai int) {
				defer wg.Done()
				rng := simcore.NewRNG(cfg.Seed ^ uint64(epoch)*0x9e3779b97f4a7c15 ^ uint64(ai)<<32)
				c := &chunks[ai]
				var p *nn.MLP
				if !warmup {
					p = policy
				}
				c.transitions, c.rewardSum, c.endState =
					collect(envs[ai], states[ai], p, actionDim, cfg.StepsPerActor, noise, rng)
				c.steps = cfg.StepsPerActor
			}(ai)
		}
		wg.Wait()

		var rewardSum float64
		var steps int
		for ai := range chunks {
			for _, tr := range chunks[ai].transitions {
				buf.Add(tr)
			}
			rewardSum += chunks[ai].rewardSum
			steps += chunks[ai].steps
			states[ai] = chunks[ai].endState
		}

		var collectDur time.Duration
		var updateStart time.Time
		if cfg.Observer != nil {
			updateStart = time.Now()
			collectDur = updateStart.Sub(collectStart)
		}
		var tdErr float64
		for u := 0; u < cfg.UpdatesPerEpoch; u++ {
			tdErr = agent.Update(buf)
		}
		meanReward := rewardSum / float64(steps)
		res.EpochRewards = append(res.EpochRewards, meanReward)
		res.FinalTDErr = tdErr
		if cfg.Observer != nil {
			cfg.Observer.EpochEnd(epoch, meanReward, tdErr, buf.Len(),
				agent.SkippedUpdates(), collectDur, time.Since(updateStart))
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, meanReward, tdErr)
		}
		noise *= noiseDecay
	}
	return res, nil
}

// collect runs one actor's experience-gathering loop: steps env interactions
// driven by the policy snapshot (nil = uniform-random warmup actions).
// Observations are copied the moment the env hands them over — environments
// are free to reuse one observation buffer across Step/Reset calls (Step
// may clobber the slice it returned last time mid-call), and replay
// transitions outlive this collection round by many epochs.
func collect(env Env, state []float64, policy *nn.MLP, actionDim, steps int, noise float64, rng *simcore.RNG) (trs []Transition, rewardSum float64, endState []float64) {
	trs = make([]Transition, 0, steps)
	state = cloneFloats(state)
	var scratch *nn.Scratch // this collector's own: a Scratch is not goroutine-safe
	if policy != nil {
		scratch = nn.NewScratch(policy)
	}
	for s := 0; s < steps; s++ {
		var action []float64
		if policy == nil {
			action = make([]float64, actionDim)
			for i := range action {
				action[i] = rng.Range(-1, 1)
			}
		} else {
			action = forwardWithNoise(policy, scratch, state, noise, rng)
		}
		next, reward, done := env.Step(action)
		next = cloneFloats(next)
		trs = append(trs, Transition{
			State: state, Action: action, Reward: reward,
			NextState: next, Done: done,
		})
		rewardSum += reward
		if done {
			state = cloneFloats(env.Reset())
		} else {
			// next is already collect-owned; sharing it with the stored
			// NextState is safe because transitions are read-only.
			state = next
		}
	}
	return trs, rewardSum, state
}

func cloneFloats(v []float64) []float64 {
	return append([]float64(nil), v...)
}

// forwardWithNoise evaluates a policy snapshot with exploration noise using
// the collector's own scratch and RNG (the shared agent RNG is not
// goroutine-safe). The action is copied out of the scratch: the replay
// buffer keeps it.
func forwardWithNoise(policy *nn.MLP, scratch *nn.Scratch, state []float64, noiseStd float64, rng *simcore.RNG) []float64 {
	a := cloneFloats(policy.ForwardInto(state, scratch))
	for i := range a {
		if noiseStd > 0 {
			a[i] += rng.Norm(0, noiseStd)
		}
		a[i] = clip(a[i], -1, 1)
	}
	return a
}
