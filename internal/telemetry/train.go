package telemetry

import "time"

// TrainingObserver instruments the rl.Train loop. It satisfies the
// rl.TrainObserver interface structurally (telemetry never imports rl, so
// rl is free to import telemetry-adjacent packages without a cycle). All
// methods are called from the training goroutine; a nil observer no-ops.
type TrainingObserver struct {
	tracer *Tracer

	epoch     *Gauge
	reward    *Gauge
	tdErr     *Gauge
	replay    *Gauge
	skipped   *Gauge
	epochs    *Counter
	updateDur *Histogram
}

// Training returns the hub's training-domain observer (nil when the hub is
// disabled — callers assign it to the config only in that branch, keeping
// the interface value nil when telemetry is off).
func (h *Hub) Training() *TrainingObserver {
	if h == nil {
		return nil
	}
	r := h.Registry
	return &TrainingObserver{
		tracer:    h.Tracer,
		epoch:     r.Gauge("train_epoch", "last completed training epoch"),
		reward:    r.Gauge("train_mean_reward", "mean per-step reward of the last epoch"),
		tdErr:     r.Gauge("train_td_error", "mean TD error of the last epoch's final update"),
		replay:    r.Gauge("train_replay_occupancy", "transitions resident in the replay buffer"),
		skipped:   r.Gauge("train_skipped_updates", "optimizer steps skipped on non-finite gradients"),
		epochs:    r.Counter("train_epochs_total", "training epochs completed"),
		updateDur: r.Histogram("train_update_phase_seconds", "wall time of each epoch's TD3 update phase"),
	}
}

// EpochEnd records one completed collection/update round.
func (o *TrainingObserver) EpochEnd(epoch int, meanReward, tdErr float64, replayLen int, skippedUpdates int64, collectDur, updateDur time.Duration) {
	if o == nil {
		return
	}
	o.epoch.Set(float64(epoch))
	o.reward.Set(meanReward)
	o.tdErr.Set(tdErr)
	o.replay.Set(float64(replayLen))
	o.skipped.Set(float64(skippedUpdates))
	o.epochs.Inc()
	o.updateDur.Observe(updateDur.Seconds())
	if o.tracer != nil {
		o.tracer.Event("train", "epoch", 0,
			I64("epoch", int64(epoch)),
			F64("mean_reward", meanReward),
			F64("td_error", tdErr),
			I64("replay_len", int64(replayLen)),
			I64("skipped_updates", skippedUpdates),
			Dur("collect_ns", collectDur),
			Dur("update_ns", updateDur),
		)
	}
}
