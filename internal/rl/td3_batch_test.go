package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/simcore"
)

// fillBuffer seeds a replay buffer with deterministic random transitions.
func fillBuffer(stateDim, actionDim, n int, seed uint64) *ReplayBuffer {
	buf := NewReplayBuffer(4 * n)
	rng := simcore.NewRNG(seed)
	for i := 0; i < n; i++ {
		s := make([]float64, stateDim)
		nx := make([]float64, stateDim)
		a := make([]float64, actionDim)
		for j := range s {
			s[j] = rng.Range(-1, 1)
			nx[j] = rng.Range(-1, 1)
		}
		for j := range a {
			a[j] = rng.Range(-1, 1)
		}
		buf.Add(Transition{
			State: s, Action: a, Reward: rng.Range(-1, 1),
			NextState: nx, Done: rng.Bernoulli(0.1),
		})
	}
	return buf
}

// agentHash folds the bits of every weight of the six networks, in a fixed
// order, into one FNV-1a value.
func agentHash(a *TD3) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, m := range []*nn.MLP{a.Actor, a.actorTarget, a.critic1, a.critic2, a.c1Target, a.c2Target} {
		for _, l := range m.Layers {
			put(l.W)
			put(l.B)
		}
	}
	return h.Sum64()
}

// TestUpdateWorkerCountDeterminism is the parallel-update determinism
// contract at the sizes the trainer really uses (Table 2: 16-128-128-2
// actor, 18-128-128-1 critics): from identical seeds and replay contents,
// ten Updates — five of them policy-delay steps — must leave all six
// networks bit-identical on 1, 2, 3 (uneven stealing), 4 and 8 goroutines,
// and equal to the hashes recorded from the commit before every phase moved
// onto the pool and the axpy kernels got AVX bodies (where the target
// forwards, the tails and the optimizer steps ran on the caller over the
// whole batch). Batch 64 is four full shards; batch 50 has a 2-row last one.
func TestUpdateWorkerCountDeterminism(t *testing.T) {
	for _, tc := range []struct {
		batch  int
		parent uint64
	}{
		{64, 0x76fd3b191313cdf8},
		{50, 0x70491fd075c9728e},
	} {
		run := func(workers int) uint64 {
			cfg := DefaultConfig(16, 2)
			cfg.Batch = tc.batch
			cfg.Seed = 77
			agent := NewTD3(cfg)
			agent.workers = workers
			defer agent.Close()
			buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 256, 78)
			for i := 0; i < 10; i++ {
				agent.Update(buf)
			}
			return agentHash(agent)
		}
		serial := run(1)
		if serial != tc.parent {
			t.Errorf("batch %d: networks hash to %#016x after 10 serial updates, the parent commit gave %#016x",
				tc.batch, serial, tc.parent)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			if got := run(workers); got != serial {
				t.Errorf("batch %d on %d workers: networks hash to %#016x, one worker gives %#016x",
					tc.batch, workers, got, serial)
			}
		}
	}
}

// TestUpdateAllocFree pins what an agent built at GOMAXPROCS=1 does: no
// pool, no goroutine, no allocation per Update (the benchmark asserts the
// same; this fails faster and under -race).
func TestUpdateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{StateDim: 8, ActionDim: 2, Hidden: []int{16, 8}, Batch: 32, Seed: 5}
	agent := NewTD3(cfg)
	buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 128, 6)
	agent.Update(buf) // warm the replay index scratch
	before := runtime.NumGoroutine()
	avg := testing.AllocsPerRun(20, func() {
		agent.Update(buf)
	})
	if avg != 0 {
		t.Fatalf("Update allocates %v per call on one worker, want 0", avg)
	}
	// Fewer goroutines is fine: an earlier test's closed pool may still be
	// unwinding helpers that have already signalled their exit.
	if agent.pool != nil || runtime.NumGoroutine() > before {
		t.Fatalf("one-worker Update started helpers (pool %v, goroutines %d -> %d)", agent.pool != nil, before, runtime.NumGoroutine())
	}
}

// TestUpdateAllocFreeWorkers pins the pooled steady state to the same
// zero-allocation contract as the serial path: after the first Update spawns
// the persistent helpers, further Updates must not allocate.
func TestUpdateAllocFreeWorkers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := Config{StateDim: 8, ActionDim: 2, Hidden: []int{16, 8}, Batch: 32, Seed: 5}
		agent := NewTD3(cfg)
		agent.workers = workers
		buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 128, 6)
		agent.Update(buf) // warm the replay index scratch and spawn the pool
		avg := testing.AllocsPerRun(20, func() {
			agent.Update(buf)
		})
		agent.Close()
		if avg != 0 {
			t.Fatalf("Update allocates %v per call on %d workers, want 0", avg, workers)
		}
	}
}

// TestReplaySampleAllocFree pins minibatch sampling — SampleIndices plus
// At, the path Update runs — to zero allocations once the index scratch has
// grown to the batch size.
func TestReplaySampleAllocFree(t *testing.T) {
	buf := fillBuffer(8, 2, 1024, 9)
	rng := simcore.NewRNG(10)
	buf.SampleIndices(rng, 64)
	var sum float64
	if avg := testing.AllocsPerRun(100, func() {
		for _, j := range buf.SampleIndices(rng, 64) {
			sum += buf.At(j).Reward
		}
	}); avg != 0 {
		t.Fatalf("SampleIndices+At allocates %v per minibatch, want 0", avg)
	}
	if n := len(buf.SampleIndices(rng, 64)); n != 64 {
		t.Fatalf("sampled %d indices, want 64", n)
	}
}
