package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
)

// runTrain is `jury train`: it trains a Jury actor with TD3 on emulated
// Table 1 environments (§3.5/§4) and writes the actor weights as JSON, or
// with -eval runs a trained actor on a test link. The learner's updates run
// on every core GOMAXPROCS grants; the trained weights do not depend on how
// many that is.
//
//	jury train -epochs 40 -out jury-actor.json
//	jury train -eval jury-actor.json -rate 350 -rtt 30
func runTrain(args []string) error {
	fs := flag.NewFlagSet("jury train", flag.ExitOnError)
	def := core.DefaultTrainOptions(0) // the budget fields do not depend on the seed
	var (
		epochs  = fs.Int("epochs", def.Epochs, "training epochs")
		actors  = fs.Int("actors", def.Actors, "parallel experience collectors")
		steps   = fs.Int("steps", def.StepsPerActor, "environment steps per actor per epoch")
		updates = fs.Int("updates", def.UpdatesPerEpoch, "TD3 updates per epoch")
		seed    = fs.Uint64("seed", 1, "random seed")
		out     = fs.String("out", "jury-actor.json", "output weights path")
		eval    = fs.String("eval", "", "evaluate a weights file instead of training")
		rate    = fs.Float64("rate", 100, "eval: link rate, Mbps")
		rtt     = fs.Float64("rtt", 30, "eval: base RTT, ms")
	)
	of := newObsFlags(fs, "attach the streaming fairness observer to -eval runs (live /fairness on -debug-addr)", true)
	hub, err := of.parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()

	if *eval != "" {
		return evaluate(*eval, *rate*1e6, 2*oneWay(*rtt), *seed)
	}
	switch {
	case *epochs <= 0:
		return usageError("-epochs must be positive")
	case *actors <= 0:
		return usageError("-actors must be positive")
	case *steps <= 0:
		return usageError("-steps must be positive")
	case *updates <= 0:
		return usageError("-updates must be positive")
	}

	opts := core.DefaultTrainOptions(*seed)
	opts.Epochs = *epochs
	opts.Actors = *actors
	opts.StepsPerActor = *steps
	opts.UpdatesPerEpoch = *updates
	opts.Progress = func(epoch int, meanReward, tdErr float64) {
		fmt.Printf("epoch %3d  mean reward %8.4f  TD error %8.4f\n", epoch, meanReward, tdErr)
	}
	if hub.Enabled() {
		opts.Observer = hub.Training()
	}
	fmt.Printf("training Jury: %d epochs x %d actors x %d steps (Table 1 domain)\n",
		opts.Epochs, opts.Actors, opts.StepsPerActor)
	agent, res, err := core.TrainPolicy(opts)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(agent.Actor, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	last := res.EpochRewards[len(res.EpochRewards)-1]
	fmt.Printf("done: final epoch mean reward %.4f, weights -> %s\n", last, *out)
	return nil
}

// evaluate runs a 2-flow fairness check with the trained actor, loaded as
// `jury serve -actor` loads it, through the harness's run pipeline, so
// -telemetry/-obs/JURY_SIMCHECK apply to it as to any other run.
func evaluate(path string, rateBps float64, rtt time.Duration, seed uint64) error {
	actor, err := core.PolicyFromActorFile(path)
	if err != nil {
		return err
	}
	mkJury := func(s uint64) func(uint64) cc.Algorithm {
		return func(uint64) cc.Algorithm {
			cfg := core.DefaultConfig()
			cfg.Seed = s
			return core.New(cfg, &core.NNPolicy{Net: actor.Net})
		}
	}
	res, err := exp.Run(exp.Scenario{
		Name: "jurytrain-eval", Rate: rateBps, OneWayDelay: rtt / 2,
		BufferBytes: int(1.5 * rateBps / 8 * rtt.Seconds()),
		Horizon:     80 * time.Second, Seed: seed,
		Flows: []exp.FlowSpec{
			{Scheme: "jury", CC: mkJury(seed + 1)},
			{Scheme: "jury", Start: 20 * time.Second, CC: mkJury(seed + 2)},
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained policy on %.0f Mbps / %v:\n", rateBps/1e6, rtt)
	for i, name := range []string{"a", "b"} {
		st := res.Flows[i].Stats
		fmt.Printf("  flow %s: %.1f Mbps (avg RTT %.1f ms)\n", name, st.AvgThroughputBps/1e6, float64(st.AvgRTT)/1e6)
	}
	fmt.Printf("  link utilization: %.3f\n", res.Utilization)
	if sum := res.Stream; sum != nil {
		fmt.Printf("  streaming fairness: final Jain %.3f (worst window %.3f over %d snapshots)\n",
			sum.FinalJain, sum.MinWindowJain, sum.Snapshots)
	}
	return nil
}
