package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/rl"
)

func TestTrainingEnvResetAndStep(t *testing.T) {
	cfg := DefaultEnvConfig(1)
	cfg.Episode = 5 * time.Second
	env := NewTrainingEnv(cfg)
	state := env.Reset()
	if len(state) != DefaultConfig().StateDim() {
		t.Fatalf("state dim %d, want %d", len(state), DefaultConfig().StateDim())
	}
	steps := 0
	done := false
	var reward float64
	for !done && steps < 10000 {
		var next []float64
		next, reward, done = env.Step([]float64{0.5, 0})
		if len(next) != DefaultConfig().StateDim() {
			t.Fatalf("step state dim %d", len(next))
		}
		steps++
	}
	if !done {
		t.Fatal("episode never finished")
	}
	// A 5s episode at 30ms intervals yields at most ~166 decisions (fewer
	// during slow start, which skips the policy).
	if steps < 10 || steps > 200 {
		t.Fatalf("episode had %d decision steps", steps)
	}
	_ = reward
	// Reset starts a fresh episode.
	if s2 := env.Reset(); len(s2) != DefaultConfig().StateDim() {
		t.Fatal("second reset broken")
	}
}

func TestTrainingEnvRewardRespondsToAction(t *testing.T) {
	// Aggressive vs maximally conservative fixed ranges: the conservative
	// agent should end with lower occupancy and (typically) lower reward
	// sums. We only assert both run to completion and produce finite
	// rewards with the aggressive one achieving higher mean occupancy.
	run := func(mu float64) float64 {
		cfg := DefaultEnvConfig(3)
		cfg.Episode = 8 * time.Second
		env := NewTrainingEnv(cfg)
		env.Reset()
		done := false
		for !done {
			_, _, done = env.Step([]float64{mu, -1}) // δ=0: pure μ control
		}
		return env.Jury().Occupancy()
	}
	occAggressive := run(1)
	occConservative := run(-1)
	if occAggressive <= occConservative {
		t.Fatalf("occupancy ordering wrong: aggressive %v vs conservative %v", occAggressive, occConservative)
	}
}

func TestTrainingEnvEpisodesDiffer(t *testing.T) {
	cfg := DefaultEnvConfig(5)
	cfg.Episode = 2 * time.Second
	env := NewTrainingEnv(cfg)
	env.Reset()
	rate1 := env.net.Links()[0].Config().Rate
	env.Reset()
	rate2 := env.net.Links()[0].Config().Rate
	if rate1 == rate2 {
		t.Fatal("consecutive episodes sampled identical bandwidth")
	}
	d := DefaultTrainingDomain()
	for _, r := range []float64{rate1, rate2} {
		if r < d.MinBandwidth || r > d.MaxBandwidth {
			t.Fatalf("sampled bandwidth %v outside Table 1 domain", r)
		}
	}
}

func TestTrainPolicySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short")
	}
	opts := DefaultTrainOptions(7)
	opts.Epochs = 3
	opts.Actors = 2
	opts.StepsPerActor = 64
	opts.UpdatesPerEpoch = 16
	agent, res, err := TrainPolicy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochRewards) != 3 {
		t.Fatalf("epochs recorded: %d", len(res.EpochRewards))
	}
	// The trained actor must produce valid decision ranges.
	policy := &NNPolicy{Net: agent.Actor}
	mu, delta := policy.Decide(make([]float64, DefaultConfig().StateDim()))
	if mu < -1 || mu > 1 || delta < 0 || delta > 1 {
		t.Fatalf("trained policy range (%v, %v) out of bounds", mu, delta)
	}
}

// TestTrainPolicyLeavesNoGoroutines: on a multi-core box the learner owns
// parked helper goroutines while it trains, and none once TrainPolicy has
// returned — callers do not have to remember agent.Close. The count is
// polled for up to a second, since an exiting helper may still be waiting
// to run its last instructions when TrainPolicy returns.
func TestTrainPolicyLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	opts := DefaultTrainOptions(7)
	opts.Epochs = 1
	opts.Actors = 2
	opts.StepsPerActor = 64
	opts.UpdatesPerEpoch = 4
	var during int
	opts.Progress = func(int, float64, float64) { during = runtime.NumGoroutine() }
	if _, _, err := TrainPolicy(opts); err != nil {
		t.Fatal(err)
	}
	if during <= before {
		t.Fatalf("no helper goroutines while training (%d before, %d during): the test proves nothing", before, during)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after != before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Fatalf("goroutines: %d before TrainPolicy, %d a second after it returned", before, after)
	}
}

var _ rl.Env = (*TrainingEnv)(nil)
