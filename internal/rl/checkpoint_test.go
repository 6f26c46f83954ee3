package rl

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/simcore"
)

func tinyAgent(seed uint64) *TD3 {
	return NewTD3(Config{StateDim: 1, ActionDim: 1, Hidden: []int{16, 16}, Seed: seed})
}

func tinyTrainConfig(agent *TD3, epochs int, path string) TrainConfig {
	return TrainConfig{
		Agent:           agent,
		EnvFactory:      func(i int) Env { return &banditEnv{rng: simcore.NewRNG(uint64(i) + 10)} },
		Actors:          2,
		Epochs:          epochs,
		StepsPerActor:   64,
		UpdatesPerEpoch: 8,
		BufferSize:      1 << 12,
		WarmupEpochs:    1,
		Seed:            7,
		CheckpointPath:  path,
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	src := tinyAgent(3)
	ck := src.snapshot()
	ck.Epoch = 5
	ck.Noise = 0.123
	ck.EpochRewards = []float64{-1, -0.5}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch != 5 || loaded.Noise != 0.123 || len(loaded.EpochRewards) != 2 {
		t.Fatalf("loop state lost: %+v", loaded)
	}
	dst := tinyAgent(99) // different seed: different initial weights
	if err := dst.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.7}
	want := src.Actor.ForwardInto(state, nn.NewScratch(src.Actor))[0]
	got := dst.Actor.ForwardInto(state, nn.NewScratch(dst.Actor))[0]
	if want != got {
		t.Fatalf("restored actor output %v, want %v", got, want)
	}
	// No temp files may linger next to the checkpoint.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("stale checkpoint temp file %q", e.Name())
		}
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	big := NewTD3(Config{StateDim: 2, ActionDim: 1, Hidden: []int{8}, Seed: 1})
	if err := tinyAgent(1).Restore(big.snapshot()); err == nil {
		t.Fatal("shape-mismatched checkpoint restored silently")
	}
	if err := tinyAgent(1).Restore(&Checkpoint{}); err == nil {
		t.Fatal("empty checkpoint restored silently")
	}
}

func TestLoadCheckpointRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	if err := os.WriteFile(path, []byte("{\"epoch\": 3, \"actor\": tru"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint loaded silently")
	}
	// A corrupt checkpoint must fail a Resume run loudly, not silently
	// restart training from scratch.
	cfg := tinyTrainConfig(tinyAgent(1), 2, path)
	cfg.Resume = true
	if _, err := Train(cfg); err == nil {
		t.Fatal("Train resumed from a corrupt checkpoint")
	}
}

// TestTrainKillAndResume is the satellite's acceptance test: a run killed
// after N epochs resumes from the last atomic checkpoint, executes only the
// remaining epochs, and ends with finite weights.
func TestTrainKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.ckpt")
	const total = 6
	const killAt = 3

	// "Kill" the first run by only asking for killAt epochs; the checkpoint
	// on disk is then exactly what a SIGKILL after epoch killAt would leave.
	first := tinyTrainConfig(tinyAgent(5), killAt, path)
	if _, err := Train(first); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != killAt {
		t.Fatalf("checkpoint epoch %d, want %d", ck.Epoch, killAt)
	}

	// Fresh process: new agent with the same architecture, Resume on.
	var ran []int
	second := tinyTrainConfig(tinyAgent(5), total, path)
	second.Resume = true
	second.Progress = func(epoch int, _, _ float64) { ran = append(ran, epoch) }
	res, err := Train(second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != total-killAt || ran[0] != killAt {
		t.Fatalf("resumed run executed epochs %v, want exactly %d..%d", ran, killAt, total-1)
	}
	if len(res.EpochRewards) != total {
		t.Fatalf("resumed result has %d epoch rewards, want %d (checkpointed + fresh)", len(res.EpochRewards), total)
	}
	if !second.Agent.Actor.AllFinite() {
		t.Fatal("non-finite weights after resume")
	}
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != total {
		t.Fatalf("final checkpoint epoch %d, want %d", final.Epoch, total)
	}
	for _, r := range final.EpochRewards {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("non-finite epoch reward in checkpoint: %v", final.EpochRewards)
		}
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
	cfg := tinyTrainConfig(agent, 4, "")
	cfg.EnvFactory = func(i int) Env {
		return &nanRewardEnv{banditEnv: banditEnv{rng: simcore.NewRNG(uint64(i) + 20)}}
	}
	if _, err := Train(cfg); err != nil {
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
