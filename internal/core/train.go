package core

import (
	"repro/internal/rl"
)

// TrainOptions controls TrainPolicy, the end-to-end TD3 training entry
// point (§3.5/§4): 8 parallel actors collect experience from emulated
// Table 1 scenarios while a central learner updates the networks.
type TrainOptions = rl.TrainConfig

// DefaultTrainOptions returns a laptop-scale training budget (the paper
// trained for 4 hours on 80 cores + a GPU; see DESIGN.md substitutions).
func DefaultTrainOptions(seed uint64) TrainOptions {
	return TrainOptions{
		Epochs:          40,
		Actors:          8,
		StepsPerActor:   512,
		UpdatesPerEpoch: 128,
		BufferSize:      1 << 17,
		WarmupEpochs:    2,
		NoiseStd:        0.3,
		Seed:            seed,
	}
}

// TrainPolicy trains a Jury actor with TD3 on emulated environments, one
// DefaultEnvConfig environment per actor, and returns the agent (whose Actor
// can be wrapped in NNPolicy) along with per-epoch reward statistics.
func TrainPolicy(opts TrainOptions) (*rl.TD3, *rl.TrainResult, error) {
	cfg := rl.DefaultConfig(DefaultConfig().StateDim(), 2) // σ, η, γ and the batch of Table 2
	cfg.Seed = opts.Seed
	agent := rl.NewTD3(cfg)

	res, err := rl.Train(agent, func(actor int) rl.Env {
		return NewTrainingEnv(DefaultEnvConfig(opts.Seed ^ (uint64(actor)+1)*0x9e3779b97f4a7c15))
	}, opts)
	if err != nil {
		return nil, nil, err
	}
	return agent, res, nil
}
