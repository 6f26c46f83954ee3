package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/simcore"
)

// warmupEpochs is how many epochs core.TrainPolicy collects with random
// actions before the policy drives collection.
const warmupEpochs = 2

func trainOptions(c *ctx) core.TrainOptions {
	o := core.DefaultTrainOptions(c.seed) // jurytrain's defaults
	o.Epochs = 8
	if c.smoke {
		o.Epochs, o.Actors, o.StepsPerActor, o.UpdatesPerEpoch = warmupEpochs+1, 2, 32, 4
	}
	return o
}

// epochLog is the rl.TrainObserver the workload trains under: the seam that
// splits each epoch's wall time into collection and update.
type epochLog struct {
	tr              *tracer
	root            int
	firstEnd        time.Time
	collect, update []time.Duration
	skipped         int64
}

func (l *epochLog) EpochEnd(epoch int, meanReward, tdErr float64, replayLen int, skipped int64, collect, update time.Duration) {
	now := time.Now()
	if epoch == 0 {
		l.firstEnd = now
	}
	l.collect = append(l.collect, collect)
	l.update = append(l.update, update)
	l.skipped = skipped
	if l.tr != nil {
		// The phases ended just now, back to back; place their spans by
		// counting back from here.
		end := int64(now.Sub(l.tr.t0))
		l.tr.add("rl.collect", l.root, end-int64(update)-int64(collect), end-int64(update))
		l.tr.add("rl.update", l.root, end-int64(update), end)
	}
}

func (l *epochLog) CheckpointSaved(int, time.Duration) {}

// trainRep trains for eight epochs exactly as jurytrain would start out.
// Set-up is everything before the first epoch's collection begins (agent,
// optimisers, environments and their first Reset); the rest is wall time.
func trainRep(c *ctx, tr *tracer) (*rep, error) {
	o := trainOptions(c)
	r := &rep{fp: newFingerprint(), vals: map[string]float64{}, ops: int64(o.Epochs)}
	log := &epochLog{tr: tr}
	o.Observer = log
	log.root = tr.begin("train_epoch.rep", 0)
	t0 := time.Now()
	agent, res, err := core.TrainPolicy(o)
	total := time.Since(t0)
	tr.end(log.root)
	if err != nil {
		r.failN(r.ops, "TrainPolicy: %v", err)
		return r, nil
	}
	agent.Close()
	if len(log.collect) != o.Epochs || len(res.EpochRewards) != o.Epochs {
		r.failN(r.ops, "trained %d epochs, observed %d, want %d", len(res.EpochRewards), len(log.collect), o.Epochs)
		return r, nil
	}
	r.setup = log.firstEnd.Sub(t0) - log.collect[0] - log.update[0]
	r.wall = total - r.setup

	for _, rw := range res.EpochRewards {
		r.fp.f64(rw)
		if math.IsNaN(rw) || math.IsInf(rw, 0) {
			r.failf("epoch reward %v", rw)
		}
	}
	r.vals["train_reward_final"] = res.EpochRewards[o.Epochs-1]

	var collect, update []float64
	for e := warmupEpochs; e < o.Epochs; e++ {
		collect = append(collect, log.collect[e].Seconds())
		update = append(update, log.update[e].Seconds())
	}
	r.vals["rl.collect_s"] = median(collect)
	r.vals["rl.update_s"] = median(update)
	r.vals["rl.env_steps_per_s"] = float64(o.Actors*o.StepsPerActor) / median(collect)
	r.vals["rl.skipped_updates"] = float64(log.skipped)
	return r, nil
}

// trainProbes times the two kernels an epoch is made of, directly: one TD3
// update on a full replay buffer, and the batched forward/backward pass at
// the training batch size on the actor's dimensions.
func trainProbes(c *ctx, tr *tracer, base, traced *rep, out *layerOut) error {
	dim := core.DefaultConfig().StateDim()
	cfg := rl.DefaultConfig(dim, 2) // Table 2; core.TrainPolicy sets the same rates and batch
	cfg.Seed = c.seed
	agent := rl.NewTD3(cfg)
	defer agent.Close()
	rng := simcore.NewRNG(c.seed)
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Range(-1, 1)
		}
		return v
	}
	buf := rl.NewReplayBuffer(4096)
	for i := 0; i < 4096; i++ {
		buf.Add(rl.Transition{State: vec(dim), Action: vec(2), Reward: rng.Range(0, 2), NextState: vec(dim)})
	}
	updates := 200
	if c.smoke {
		updates = 8
	}
	out.set("rl.update_ms", nsPerCall(updates, func(int) { agent.Update(buf) })/1e6)

	actor, rows := actorNet(c.seed), cfg.Batch
	x, dOut := vec(rows*dim), vec(rows*2)
	trace, grads, scratch := nn.NewBatchTrace(actor, rows), nn.NewGrads(actor), nn.NewBatchScratch(actor, rows)
	iters := 2000
	if c.smoke {
		iters = 20
	}
	out.set("nn.forward_batch_ns_per_row", nsPerCall(iters, func(int) { actor.ForwardBatchInto(x, rows, scratch) })/float64(rows))
	actor.ForwardBatchTraceInto(x, rows, trace)
	out.set("nn.backward_batch_ns_per_row", nsPerCall(iters, func(int) { actor.BackwardBatchInto(trace, rows, dOut, grads, scratch) })/float64(rows))
	return nil
}
