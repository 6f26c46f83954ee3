package rl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/simcore"
)

// smallConfig is an 8-16-8-2 agent at batch 32, with Table 2's other values.
func smallConfig() Config {
	cfg := testConfig(8, 2, []int{16, 8}, 5)
	cfg.Batch = 32
	return cfg
}

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
	cfg := smallConfig()
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
		cfg := smallConfig()
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

// TestUpdateWeightsPinned pins the weights BenchmarkTD3Update trains: from
// its setup (seed 31, 1,024 transitions from fillBuffer seed 32), 300
// Updates — 150 of them policy-delay steps — must leave all six networks
// hashing to the value recorded before the backward products, the Adam step
// and the gradient finish moved onto their vector bodies, on one worker and
// on two.
func TestUpdateWeightsPinned(t *testing.T) {
	const pinned = 0x71b5a017ec880c3a
	for _, workers := range []int{1, 2} {
		cfg := DefaultConfig(16, 2)
		cfg.Seed = 31
		agent := NewTD3(cfg)
		agent.workers = workers
		buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 1024, 32)
		for i := 0; i < 300; i++ {
			agent.Update(buf)
		}
		agent.Close()
		if got := agentHash(agent); got != pinned {
			t.Errorf("%d worker(s): networks hash to %#016x after 300 updates, want %#016x", workers, got, pinned)
		}
	}
}

// TestPoolParkedAndSpinningPinned runs TestUpdateWeightsPinned's 300
// updates on the pool twice per worker count: with a sleep longer than
// spinBudget before every update, so each one starts on helpers that have
// parked, and back to back, so each hand-off meets a helper still spinning.
// Both must leave the six networks at the pinned hash, at 2 and 4 workers.
func TestPoolParkedAndSpinningPinned(t *testing.T) {
	const pinned = 0x71b5a017ec880c3a // TestUpdateWeightsPinned's value
	for _, workers := range []int{2, 4} {
		for _, parked := range []bool{true, false} {
			cfg := DefaultConfig(16, 2)
			cfg.Seed = 31
			agent := NewTD3(cfg)
			agent.workers = workers
			buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 1024, 32)
			for i := 0; i < 300; i++ {
				if parked {
					time.Sleep(2 * spinBudget)
				}
				agent.Update(buf)
			}
			agent.Close()
			if got := agentHash(agent); got != pinned {
				t.Errorf("%d workers, parked %v: networks hash to %#016x after 300 updates, want %#016x",
					workers, parked, got, pinned)
			}
		}
	}
}

// TestCloseDuringSpin closes the pool right after an update, while its
// helpers are still polling for the next round token, and again after they
// have parked: Close must return with every helper gone, and the agent
// must stay usable.
func TestCloseDuringSpin(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := smallConfig()
	buf := fillBuffer(cfg.StateDim, cfg.ActionDim, 128, 6)
	for _, workers := range []int{2, 4} {
		agent := NewTD3(cfg)
		agent.workers = workers
		for i := 0; i < 5; i++ {
			agent.Update(buf)
			if i%2 == 1 {
				time.Sleep(2 * spinBudget)
			}
			agent.Close()
			if agent.pool != nil {
				t.Fatalf("%d workers: Close left the pool in place", workers)
			}
		}
	}
	// A helper leaves the WaitGroup Close waits on in a deferred call, so
	// its goroutine may need a moment more to unwind.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d -> %d after every pool was closed", before, runtime.NumGoroutine())
		}
	}
}

// finishRef is the gradient finish as separate passes, the reference
// finishFold must match bit for bit: g += o, g = scale·g, the global L2
// norm as one serial sum of squares over W[0], B[0], W[1], B[1], …, a
// rescale by clip/norm when the norm exceeds clip, and the finiteness of
// what is left.
func finishRef(g, o *nn.Grads, scale, clip float64) bool {
	slices := func(g *nn.Grads) [][]float64 {
		var s [][]float64
		for i := range g.W {
			s = append(s, g.W[i], g.B[i])
		}
		return s
	}
	gs := slices(g)
	var ov [][]float64
	if o != nil {
		ov = slices(o)
	}
	var sq float64
	for si, v := range gs {
		for j := range v {
			if o != nil {
				v[j] += 1 * ov[si][j]
			}
			v[j] = scale * v[j]
			sq += v[j] * v[j]
		}
	}
	if norm := math.Sqrt(sq); clip > 0 && norm > clip {
		for _, v := range gs {
			for j := range v {
				v[j] = clip / norm * v[j]
			}
		}
	}
	for _, v := range gs {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

// TestFinishFoldMatchesReference holds the one-pass gradient finish to the
// separate passes (finishRef), bit for bit (NaN for NaN) and verdict for
// verdict, on networks whose layer widths cover every length mod 4, with
// and without a last fold, below and above the clip, with a sum of squares
// that overflows although every element is finite (the clip then scales by
// 0 and the verdict stays finite), and with a NaN, a +Inf or a −Inf in one
// element, or −0 in many.
func TestFinishFoldMatchesReference(t *testing.T) {
	rng := simcore.NewRNG(41)
	net := nn.NewMLP(rng, []int{5, 7, 6, 1}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Linear})
	fill := func(g *nn.Grads, mag float64) {
		for i := range g.W {
			for _, v := range [][]float64{g.W[i], g.B[i]} {
				for j := range v {
					v[j] = rng.Range(-mag, mag)
				}
			}
		}
	}
	clone := func(g *nn.Grads) *nn.Grads {
		c := nn.NewGrads(net)
		for i := range g.W {
			copy(c.W[i], g.W[i])
			copy(c.B[i], g.B[i])
		}
		return c
	}
	bitsOf := func(g *nn.Grads) []uint64 {
		var b []uint64
		for i := range g.W {
			for _, v := range [][]float64{g.W[i], g.B[i]} {
				for _, x := range v {
					if math.IsNaN(x) {
						x = math.NaN() // any NaN matches any NaN
					}
					b = append(b, math.Float64bits(x))
				}
			}
		}
		return b
	}
	poisons := []func(g *nn.Grads){
		func(*nn.Grads) {},
		func(g *nn.Grads) { g.W[1][3] = math.NaN() },
		func(g *nn.Grads) { g.B[2][0] = math.Inf(1) },
		func(g *nn.Grads) { g.W[0][34] = math.Inf(-1) },
		func(g *nn.Grads) {
			for j := range g.W[1] {
				if j%3 == 0 {
					g.W[1][j] = math.Copysign(0, -1)
				}
			}
		},
	}
	for _, batch := range []float64{64, 50} { // 1/50 is inexact, so add-then-scale shows
		for _, mag := range []float64{1e-3, 1, 100, 1e200} {
			for _, clip := range []float64{0, 10, 1e300} {
				for pi, poison := range poisons {
					for _, withLast := range []bool{false, true} {
						g, o := nn.NewGrads(net), nn.NewGrads(net)
						fill(g, mag)
						fill(o, mag)
						poison(g)
						var gotO, wantO *nn.Grads
						if withLast {
							gotO, wantO = o, clone(o)
						}
						want := clone(g)
						wantOK := finishRef(want, wantO, 1/batch, clip)
						gotOK := finishFold(g, gotO, 1/batch, clip)
						what := fmt.Sprintf("batch %v mag %g clip %g poison %d last %v", batch, mag, clip, pi, withLast)
						if gotOK != wantOK {
							t.Fatalf("%s: finite %v, reference %v", what, gotOK, wantOK)
						}
						gb, wb := bitsOf(g), bitsOf(want)
						for j := range gb {
							if gb[j] != wb[j] {
								t.Fatalf("%s: element %d is %#x, reference %#x", what, j, gb[j], wb[j])
							}
						}
					}
				}
			}
		}
	}
}
