// Package jury is the public API of this repository: a from-scratch Go
// implementation of "Achieving Fairness Generalizability for Learning-based
// Congestion Control with Jury" (Tian et al., EuroSys '25), together with
// the substrates it needs — a deterministic packet-level network emulator,
// a TD3/DDPG training stack, and every baseline congestion-control scheme
// from the paper's evaluation.
//
// Quick start — run one Jury flow over an emulated bottleneck:
//
//	net := jury.NewNetwork(jury.NetworkConfig{Seed: 1})
//	link := net.AddLink(jury.LinkConfig{Rate: 100e6, Delay: 15 * time.Millisecond, BufferBytes: 750_000})
//	flow := net.AddFlow(jury.FlowConfig{
//		Name: "demo",
//		Path: []*jury.Link{link},
//		Alg:  jury.NewController(1),
//	})
//	net.Run(60 * time.Second)
//	fmt.Println(flow.Stats())
//
// The three design elements of the paper live in internal/core and surface
// here: the bandwidth-agnostic signal transformation (Signals,
// Transformer), the decision-range policy abstraction (Policy,
// ReferencePolicy, NNPolicy), and the occupancy-driven post-processing
// (EstimateOccupancy, PostProcess). Training runs through TrainPolicy,
// and every table/figure of the paper is reproduced by `jury exp` (see
// DESIGN.md and EXPERIMENTS.md).
//
// The command line is one binary, cmd/jury, whose subcommands simulate
// (sim), reproduce the paper's tables and figures (exp), train (train),
// serve a policy (serve) and render SVG figures (plot):
//
//	go run ./cmd/jury exp -list
//	go run ./cmd/jury exp -exp fig7b
package jury

import (
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rl"
)

// Core controller types (the paper's contribution).
type (
	// Config holds Jury's hyperparameters; DefaultConfig holds Table 2's,
	// and a controller uses its Config as given.
	Config = core.Config
	// Controller is the Jury congestion controller (Fig. 2 pipeline).
	Controller = core.Jury
	// Policy maps the stacked bandwidth-agnostic state to a decision range.
	Policy = core.Policy
	// ReferencePolicy is the deterministic converged-policy stand-in.
	ReferencePolicy = core.ReferencePolicy
	// NNPolicy wraps a trained actor network.
	NNPolicy = core.NNPolicy
	// Signals is the output of the §3.1 signal transformation.
	Signals = core.Signals
	// Transformer implements the signal transformation block.
	Transformer = core.Transformer
	// OccupancyEstimator implements the filtered Eq. 5 estimator.
	OccupancyEstimator = core.OccupancyEstimator
	// TrainingDomain is the Table 1 environment distribution.
	TrainingDomain = core.TrainingDomain
	// TrainOptions configures TD3 training (used as given; start from
	// DefaultTrainOptions).
	TrainOptions = core.TrainOptions
)

// Emulator types (the Mahimahi/Pantheon substitute).
type (
	// Network is a deterministic packet-level emulation.
	Network = netsim.Network
	// NetworkConfig seeds a Network.
	NetworkConfig = netsim.Config
	// Link is a bottleneck with a DropTail byte queue.
	Link = netsim.Link
	// LinkConfig describes a link (rate or trace, delay, buffer, loss).
	LinkConfig = netsim.LinkConfig
	// Flow is a bulk sender driving one congestion controller.
	Flow = netsim.Flow
	// FlowConfig describes a flow (path, scheme, start, duration, RTT).
	FlowConfig = netsim.FlowConfig
	// FlowStats summarizes a flow's lifetime.
	FlowStats = netsim.FlowStats
	// SeriesPoint is one recorded sample of a flow time series.
	SeriesPoint = netsim.SeriesPoint
	// CC is the congestion-control algorithm interface all schemes satisfy.
	CC = cc.Algorithm
	// IntervalStats is the per-control-interval feedback aggregate.
	IntervalStats = cc.IntervalStats
)

// DefaultConfig returns the paper's Table 2 hyperparameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultTrainingDomain returns the paper's Table 1 environment ranges.
func DefaultTrainingDomain() TrainingDomain { return core.DefaultTrainingDomain() }

// NewController returns a Jury controller with default configuration and
// the reference policy, seeded for one flow.
func NewController(seed uint64) *Controller { return core.NewDefault(seed) }

// NewControllerWithPolicy returns a Jury controller driving a custom policy
// (e.g. an NNPolicy loaded from trained weights).
func NewControllerWithPolicy(cfg Config, p Policy) *Controller { return core.New(cfg, p) }

// NewReferencePolicy returns the tuned deterministic reference policy.
func NewReferencePolicy() *ReferencePolicy { return core.NewReferencePolicy() }

// NewNetwork returns an empty emulated network.
func NewNetwork(cfg NetworkConfig) *Network { return netsim.New(cfg) }

// EstimateOccupancy inverts Eq. 4 to recover a flow's bottleneck share from
// one (rate change, throughput change) pair (Eq. 5).
func EstimateOccupancy(rateChange, thrRatio float64) (float64, bool) {
	return core.EstimateOccupancy(rateChange, thrRatio)
}

// PostProcess implements Eq. 6: the action chosen inside the decision range
// (mu, delta) for a flow with the given bandwidth-occupancy estimate.
func PostProcess(mu, delta, ratioBW float64) float64 {
	return core.PostProcess(mu, delta, ratioBW)
}

// Reward computes the Eq. 9 training reward.
func Reward(cfg Config, ratioBW float64, rtt, rttMin time.Duration, loss, lossMin float64) float64 {
	return core.Reward(cfg, ratioBW, rtt, rttMin, loss, lossMin)
}

// TrainPolicy trains a Jury actor with TD3 over emulated Table 1
// environments and returns the agent plus per-epoch statistics. Wrap the
// returned agent's Actor in an NNPolicy to deploy it.
func TrainPolicy(opts TrainOptions) (*rl.TD3, *rl.TrainResult, error) {
	return core.TrainPolicy(opts)
}

// DefaultTrainOptions returns a laptop-scale training budget: `jury train`'s
// epochs, actors, steps and updates, replay size and exploration schedule.
func DefaultTrainOptions(seed uint64) TrainOptions { return core.DefaultTrainOptions(seed) }
