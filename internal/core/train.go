package core

import (
	"repro/internal/rl"
)

// TrainOptions controls TrainPolicy, the end-to-end TD3 training entry
// point (§3.5/§4): 8 parallel actors collect experience from emulated
// Table 1 scenarios while a central learner updates the networks.
type TrainOptions struct {
	Env             EnvConfig
	Epochs          int
	Actors          int
	StepsPerActor   int
	UpdatesPerEpoch int
	Seed            uint64
	Progress        func(epoch int, meanReward, tdErr float64)
	// Observer, if non-nil, receives structured training telemetry (see
	// rl.TrainObserver; internal/telemetry provides the implementation).
	Observer rl.TrainObserver
}

// DefaultTrainOptions returns a laptop-scale training budget (the paper
// trained for 4 hours on 80 cores + a GPU; see DESIGN.md substitutions).
func DefaultTrainOptions(seed uint64) TrainOptions {
	return TrainOptions{
		Env:             DefaultEnvConfig(seed),
		Epochs:          40,
		Actors:          8,
		StepsPerActor:   512,
		UpdatesPerEpoch: 128,
		Seed:            seed,
	}
}

// TrainPolicy trains a Jury actor with TD3 on emulated environments and
// returns the agent (whose Actor can be wrapped in NNPolicy) along with
// per-epoch reward statistics.
func TrainPolicy(opts TrainOptions) (*rl.TD3, *rl.TrainResult, error) {
	cfg := rl.DefaultConfig(opts.Env.Jury.StateDim(), 2) // σ, η, γ and the batch of Table 2
	cfg.Seed = opts.Seed
	agent := rl.NewTD3(cfg)

	res, err := rl.Train(rl.TrainConfig{
		Agent: agent,
		EnvFactory: func(actor int) rl.Env {
			ec := opts.Env
			ec.Seed = opts.Seed ^ (uint64(actor)+1)*0x9e3779b97f4a7c15
			return NewTrainingEnv(ec)
		},
		Actors:          opts.Actors,
		Epochs:          opts.Epochs,
		StepsPerActor:   opts.StepsPerActor,
		UpdatesPerEpoch: opts.UpdatesPerEpoch,
		WarmupEpochs:    2,
		NoiseStd:        0.3,
		Seed:            opts.Seed,
		Progress:        opts.Progress,
		Observer:        opts.Observer,
	})
	if err != nil {
		return nil, nil, err
	}
	return agent, res, nil
}
