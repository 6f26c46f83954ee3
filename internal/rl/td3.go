package rl

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/simcore"
)

// Config parameterizes a TD3 agent. NewTD3 uses every field as given;
// DefaultConfig holds the paper's Table 2 values.
type Config struct {
	StateDim  int
	ActionDim int
	Hidden    []int // hidden layer widths (paper: two 128-wide layers)

	ActorLR  float64 // σ in the paper: 5e-4
	CriticLR float64 // η in the paper: 1e-3
	Gamma    float64 // discount: 0.98
	Batch    int     // 64
	Seed     uint64
}

// The rest of TD3's hyperparameters are fixed. TD3's additions (§3.5) are
// delayed policy updates and target policy smoothing; clipped double-Q is
// always on.
const (
	tau         = 0.005 // soft target update rate
	policyDelay = 2     // critic updates per actor and target update
	targetNoise = 0.2   // std of the target-action smoothing noise
	noiseClip   = 0.5   // bound on each smoothing-noise draw
	gradClip    = 10    // global gradient-norm clip
)

// DefaultConfig returns the paper's hyperparameters (Table 2) for the given
// state/action dimensions.
func DefaultConfig(stateDim, actionDim int) Config {
	return Config{
		StateDim:  stateDim,
		ActionDim: actionDim,
		Hidden:    []int{128, 128},
		ActorLR:   5e-4,
		CriticLR:  1e-3,
		Gamma:     0.98,
		Batch:     64,
		Seed:      1,
	}
}

// shardRows is the fixed shard height of the batched update. It is part of
// the determinism contract: shard boundaries depend only on the batch size,
// never on the worker count, so the per-shard gradient sums (and their fixed
// pairwise reduction) are identical no matter how many goroutines run them.
const shardRows = 16

// updateShard holds one shard's private buffers: a contiguous row range of
// the batch plus the traces, scratches, and gradient accumulators its
// backward passes write. Shards share no mutable state, so any assignment
// of shards to workers is race-free and order-independent.
type updateShard struct {
	r0, r1 int

	c1Tr, c2Tr, actorTr *nn.BatchTrace // row-range views of the full-batch traces

	c1G, c2G, actorG *nn.Grads

	criticS, actorS *nn.BatchScratch
	dAct            []float64 // rows×A: dQ/dAction gathered from the critic's input grads
}

// TD3 is a deterministic-policy actor-critic agent with clipped double
// Q-learning, delayed policy updates, and target policy smoothing. Update
// processes the whole minibatch as matrix products over the batched nn
// kernels (see internal/nn/gemm.go and DESIGN.md).
type TD3 struct {
	cfg Config
	rng *simcore.RNG

	Actor       *nn.MLP
	actorTarget *nn.MLP
	critic1     *nn.MLP
	critic2     *nn.MLP
	c1Target    *nn.MLP
	c2Target    *nn.MLP

	actorOpt *nn.Adam
	c1Opt    *nn.Adam
	c2Opt    *nn.Adam

	// Batched-update state, preallocated so a training step allocates
	// nothing in steady state. Matrices are flat row-major; W = S+A is the
	// critic input width.
	nextStates []float64 // B×S gather of the batch's next states
	states     []float64 // B×S gather of the batch's states
	saNext     []float64 // B×W: next-state ++ smoothed target action
	noise      []float64 // B×A: target-smoothing noise, drawn before the critic round
	saCur      []float64 // B×W: state ++ action
	rewards    []float64 // B
	done       []bool    // B
	yBuf       []float64 // B: clipped double-Q TD targets
	dOut1      []float64 // B×1: critic-1 output gradients (reused as -1s in the actor phase)
	dOut2      []float64 // B×1: critic-2 output gradients

	shards  []updateShard
	tdShard []float64 // per-shard Σ|TD error|, summed in shard order

	criticFinite [2]bool // criticTail's verdict on each critic's gradient; Update reads both

	// The task bodies of Update's pool rounds, bound once so the serial path
	// passes a prebuilt func and stays allocation-free.
	criticShardFn func(int)
	criticTailFn  func(int)
	criticStepFn  func(int)
	actorShardFn  func(int)
	delayedTailFn func(int)

	// workers is how many goroutines one round may run on, the caller
	// included: GOMAXPROCS at construction. 1 is the serial path — no pool,
	// no goroutines. pool holds the persistent helpers (nil until the first
	// parallel round; see shardPool).
	workers int
	pool    *shardPool

	updates        int
	skippedUpdates int64
}

// SkippedUpdates counts optimizer steps discarded because the batch produced
// non-finite gradients (e.g. a NaN reward that slipped into the replay
// buffer). Skipping keeps one poisoned transition from destroying the
// weights; the soft target updates still run, so training continues.
func (t *TD3) SkippedUpdates() int64 { return t.skippedUpdates }

// NewTD3 builds an agent from cfg exactly as given. The actor ends in tanh
// (actions in [-1,1]^d); the critics map (state ++ action) to a scalar value.
func NewTD3(cfg Config) *TD3 {
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 || cfg.Batch <= 0 {
		panic(fmt.Sprintf("rl: bad dims %d/%d or batch %d", cfg.StateDim, cfg.ActionDim, cfg.Batch))
	}
	rng := simcore.NewRNG(cfg.Seed)
	actorSizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	actorSizes = append(actorSizes, cfg.ActionDim)
	actorActs := make([]nn.Activation, len(actorSizes)-1)
	for i := range actorActs {
		actorActs[i] = nn.ReLU
	}
	actorActs[len(actorActs)-1] = nn.Tanh

	criticSizes := append([]int{cfg.StateDim + cfg.ActionDim}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	criticActs := make([]nn.Activation, len(criticSizes)-1)
	for i := range criticActs {
		criticActs[i] = nn.ReLU
	}
	criticActs[len(criticActs)-1] = nn.Linear

	t := &TD3{
		cfg:     cfg,
		rng:     rng,
		Actor:   nn.NewMLP(rng.Split(1), actorSizes, actorActs),
		critic1: nn.NewMLP(rng.Split(2), criticSizes, criticActs),
		critic2: nn.NewMLP(rng.Split(3), criticSizes, criticActs),
	}
	t.actorTarget = t.Actor.Clone()
	t.c1Target = t.critic1.Clone()
	t.c2Target = t.critic2.Clone()
	t.actorOpt = nn.NewAdam(t.Actor, cfg.ActorLR)
	t.c1Opt = nn.NewAdam(t.critic1, cfg.CriticLR)
	t.c2Opt = nn.NewAdam(t.critic2, cfg.CriticLR)

	B, S, A := cfg.Batch, cfg.StateDim, cfg.ActionDim
	W := S + A
	t.nextStates = make([]float64, B*S)
	t.states = make([]float64, B*S)
	t.saNext = make([]float64, B*W)
	t.noise = make([]float64, B*A)
	t.saCur = make([]float64, B*W)
	t.rewards = make([]float64, B)
	t.done = make([]bool, B)
	t.yBuf = make([]float64, B)
	t.dOut1 = make([]float64, B)
	t.dOut2 = make([]float64, B)

	c1Tr := nn.NewBatchTrace(t.critic1, B)
	c2Tr := nn.NewBatchTrace(t.critic2, B)
	aTr := nn.NewBatchTrace(t.Actor, B)
	n := (B + shardRows - 1) / shardRows
	t.shards = make([]updateShard, n)
	t.tdShard = make([]float64, n)
	for s := range t.shards {
		r0 := s * shardRows
		r1 := r0 + shardRows
		if r1 > B {
			r1 = B
		}
		t.shards[s] = updateShard{
			r0: r0, r1: r1,
			c1Tr:    c1Tr.Slice(r0, r1),
			c2Tr:    c2Tr.Slice(r0, r1),
			actorTr: aTr.Slice(r0, r1),
			c1G:     nn.NewGrads(t.critic1),
			c2G:     nn.NewGrads(t.critic2),
			actorG:  nn.NewGrads(t.Actor),
			criticS: nn.NewBatchScratch(t.critic1, r1-r0),
			actorS:  nn.NewBatchScratch(t.Actor, r1-r0),
			dAct:    make([]float64, (r1-r0)*A),
		}
	}
	t.criticShardFn = t.criticShard
	t.criticTailFn = t.criticTail
	t.criticStepFn = t.criticStep
	t.actorShardFn = t.actorShard
	t.delayedTailFn = t.delayedTail
	t.workers = runtime.GOMAXPROCS(0)
	return t
}

func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Update performs one TD3 training step on a batch sampled from buf and
// returns the mean critic TD error (diagnostic). Every policyDelay-th call
// also updates the actor and the target networks.
//
// Only what consumes the agent RNG runs on the calling goroutine, in a fixed
// order: the index sample, the gather it drives, and the B×A smoothing-noise
// draws. Everything else is a round of independent tasks (see run): the
// smoothed target actions, the TD targets and the critic forward/backward
// per shard; the two critics' gradient tails, then their two optimizer
// steps; and on every policyDelay-th call the actor phase per shard, then
// the three target-network tails — three rounds, or five. A row's forward
// output does not depend on which rows share the kernel call, shard
// boundaries and the gradient fold order depend on the batch size alone (see
// shardRows), and the tasks of one round touch disjoint state — so the
// weights are bit-identical on any number of goroutines.
func (t *TD3) Update(buf *ReplayBuffer) float64 {
	if buf.Len() < t.cfg.Batch {
		return 0
	}
	B, S, A := t.cfg.Batch, t.cfg.StateDim, t.cfg.ActionDim
	W := S + A
	idx := buf.SampleIndices(t.rng, B)
	for k, j := range idx {
		tr := buf.At(j)
		copy(t.states[k*S:(k+1)*S], tr.State)
		copy(t.nextStates[k*S:(k+1)*S], tr.NextState)
		copy(t.saCur[k*W:k*W+S], tr.State)
		copy(t.saCur[k*W+S:(k+1)*W], tr.Action)
		t.rewards[k] = tr.Reward
		t.done[k] = tr.Done
	}

	// Target policy smoothing (TD3 trick #3): the noise stream is drawn here
	// in row-major order, matching the retired per-sample path draw for draw,
	// and each critic shard adds its own rows' noise to its target actions.
	for i := range t.noise {
		t.noise[i] = clip(t.rng.Norm(0, targetNoise), -noiseClip, noiseClip)
	}

	t.run(t.criticShardFn, len(t.shards))
	var tdErr float64
	for _, td := range t.tdShard {
		tdErr += td
	}
	t.run(t.criticTailFn, 2)
	if t.criticFinite[0] && t.criticFinite[1] { // step both critics or neither
		t.run(t.criticStepFn, 2)
	} else {
		t.skippedUpdates++
		tdErr = 0 // the TD error of a poisoned batch is meaningless
	}

	t.updates++
	if t.updates%policyDelay == 0 { // delayed policy update (TD3 trick #2)
		t.run(t.actorShardFn, len(t.shards))
		t.run(t.delayedTailFn, 3)
	}
	return tdErr * (1 / float64(B)) // times the reciprocal, not ÷B: the bits differ
}

// joinRows writes rows of x (width S) ++ a (width A) into sa (width S+A).
func joinRows(sa, x, a []float64, rows, S, A int) {
	W := S + A
	for r := 0; r < rows; r++ {
		copy(sa[r*W:r*W+S], x[r*S:(r+1)*S])
		copy(sa[r*W+S:(r+1)*W], a[r*A:(r+1)*A])
	}
}

// criticShard runs the critic phase for shard si: the target actor's
// actions for its rows' next states plus their smoothing noise, the
// clipped double-Q targets of its rows (trick #1) from the two target
// critics, then forward-trace both critics over the rows, derive the
// squared-TD-error output gradients against those targets, and
// backpropagate into the shard's private gradient accumulators.
func (t *TD3) criticShard(si int) {
	sh := &t.shards[si]
	rows := sh.r1 - sh.r0
	S, A := t.cfg.StateDim, t.cfg.ActionDim
	W := S + A
	xs := t.nextStates[sh.r0*S : sh.r1*S]
	saNext := t.saNext[sh.r0*W : sh.r1*W]
	joinRows(saNext, xs, t.actorTarget.ForwardBatchInto(xs, rows, sh.actorS), rows, S, A)
	noise := t.noise[sh.r0*A : sh.r1*A]
	for r := 0; r < rows; r++ {
		act := saNext[r*W+S : (r+1)*W]
		for i := range act {
			act[i] = clip(act[i]+noise[r*A+i], -1, 1)
		}
	}

	// The second target forward reuses the critic scratch (free until the
	// backward below), so the first result is copied out before it runs.
	ys := t.yBuf[sh.r0:sh.r1]
	copy(ys, t.c1Target.ForwardBatchInto(saNext, rows, sh.criticS))
	q2 := t.c2Target.ForwardBatchInto(saNext, rows, sh.criticS)
	for r := range ys {
		y := t.rewards[sh.r0+r]
		if !t.done[sh.r0+r] {
			y += t.cfg.Gamma * math.Min(ys[r], q2[r])
		}
		ys[r] = y
	}

	sa := t.saCur[sh.r0*W : sh.r1*W]
	t.critic1.ForwardBatchTraceInto(sa, rows, sh.c1Tr)
	t.critic2.ForwardBatchTraceInto(sa, rows, sh.c2Tr)
	out1 := sh.c1Tr.Output()
	out2 := sh.c2Tr.Output()
	var td float64
	for r, y := range ys {
		e1 := out1[r] - y
		e2 := out2[r] - y
		td += math.Abs(e1)
		t.dOut1[sh.r0+r] = 2 * e1
		t.dOut2[sh.r0+r] = 2 * e2
	}
	t.tdShard[si] = td
	t.critic1.BackwardBatchParams(sh.c1Tr, rows, t.dOut1[sh.r0:sh.r1], sh.c1G, sh.criticS)
	t.critic2.BackwardBatchParams(sh.c2Tr, rows, t.dOut2[sh.r0:sh.r1], sh.c2G, sh.criticS)
}

// criticTail folds, averages and clips critic i's shard gradients and
// records whether the result is finite.
func (t *TD3) criticTail(i int) {
	pick := pickC1
	if i == 1 {
		pick = pickC2
	}
	_, t.criticFinite[i] = t.reduceShards(pick)
}

// criticStep applies critic i's reduced gradients (left in shard 0's
// accumulator by criticTail).
func (t *TD3) criticStep(i int) {
	if i == 0 {
		t.c1Opt.Step(t.critic1, t.shards[0].c1G)
	} else {
		t.c2Opt.Step(t.critic2, t.shards[0].c2G)
	}
}

// actorShard runs the deterministic-policy-gradient phase for shard si:
// maximize Q1(s, π(s)) by pushing dQ1/dAction through the actor.
func (t *TD3) actorShard(si int) {
	sh := &t.shards[si]
	rows := sh.r1 - sh.r0
	S, A := t.cfg.StateDim, t.cfg.ActionDim
	W := S + A
	xs := t.states[sh.r0*S : sh.r1*S]
	t.Actor.ForwardBatchTraceInto(xs, rows, sh.actorTr)
	// Rebuild state ++ action rows with the current policy's actions,
	// reusing saNext's shard rows (their TD-target contents are spent).
	sa := t.saNext[sh.r0*W : sh.r1*W]
	joinRows(sa, xs, sh.actorTr.Output(), rows, S, A)
	t.critic1.ForwardBatchTraceInto(sa, rows, sh.c1Tr)
	dq := t.dOut1[sh.r0:sh.r1]
	for r := range dq {
		dq[r] = -1 // maximize Q: dLoss/dQ = -1
	}
	dIn := t.critic1.BackwardBatchInput(sh.c1Tr, rows, dq, sh.criticS)
	// Gather the action columns of the critic's input gradients into a
	// dense rows×A matrix before the actor backward reuses any scratch.
	for r := 0; r < rows; r++ {
		copy(sh.dAct[r*A:(r+1)*A], dIn[r*W+S:(r+1)*W])
	}
	t.Actor.BackwardBatchParams(sh.actorTr, rows, sh.dAct, sh.actorG, sh.actorS)
}

// delayedTail is the policy-delay step's closing round: task 0 steps the
// actor on its reduced gradient (or counts the skip — the one writer of
// skippedUpdates in this round) and moves its target; tasks 1 and 2 move
// the critic targets, which the actor step neither reads nor writes.
func (t *TD3) delayedTail(i int) {
	switch i {
	case 0:
		if g, finite := t.reduceShards(pickActor); finite {
			t.actorOpt.Step(t.Actor, g)
		} else {
			t.skippedUpdates++
		}
		nn.SoftUpdate(t.actorTarget, t.Actor, tau)
	case 1:
		nn.SoftUpdate(t.c1Target, t.critic1, tau)
	case 2:
		nn.SoftUpdate(t.c2Target, t.critic2, tau)
	}
}

// run executes fn(0) … fn(n-1), which must be mutually independent, and
// returns when all are done: on the calling goroutine alone at one worker,
// otherwise on the caller plus up to workers-1 pooled helpers pulling task
// indices from an atomic counter. Stealing is safe because no task reads
// what another of its round writes, and every order-sensitive fold happens
// inside one task or on the caller afterwards.
func (t *TD3) run(fn func(int), n int) {
	w := min(t.workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if t.pool == nil {
		t.pool = newShardPool(t.workers - 1)
	}
	t.pool.run(fn, n, w-1)
}

// spinBudget is how long a pool goroutine polls for its next hand-off before
// it blocks: a helper for its round token, the caller for its round's done
// signal. A blocked goroutine parks its thread, so the hand-off after it is
// a futex wake. Between the rounds of back-to-back updates a helper waits
// across a round's imbalance and the serial index sample, gather and noise
// draws: under 0.6 ms in 99 % of its waits (DESIGN.md "Spin, then park" has
// the measured distribution). The budget covers that and is short next to
// a collection phase, which a helper enters spinning for at most one budget
// before it parks.
const spinBudget = time.Millisecond

// shardPool keeps workers-1 helper goroutines alive across Update calls so a
// round costs two channel operations per helper instead of a goroutine
// spawn, and allocates nothing — the same zero-allocation contract as the
// serial path.
type shardPool struct {
	fn   func(int)    // the current round's task body
	n    int32        // tasks in the current round
	next atomic.Int32 // work-stealing task cursor
	left atomic.Int32 // round participants (helpers + caller) still running

	start   chan struct{} // each token wakes one helper for one round
	done    chan struct{} // posted by the round's last finisher
	closed  chan struct{}
	spawned int            // helpers launched so far (lazy, grows toward cap(start))
	exited  sync.WaitGroup // … and not yet returned; close waits on it
}

func newShardPool(maxHelpers int) *shardPool {
	return &shardPool{
		start:  make(chan struct{}, maxHelpers),
		done:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
}

// run executes fn over n tasks on the calling goroutine plus helpers pooled
// goroutines, returning when all tasks are done. The start-token send
// happens-before a helper's reads of fn/n, and the last finisher's done send
// happens-before run's return, so rounds never overlap and fn's effects are
// visible to the caller.
func (p *shardPool) run(fn func(int), n, helpers int) {
	for p.spawned < helpers {
		p.spawned++
		p.exited.Add(1)
		go p.loop()
	}
	p.fn, p.n = fn, int32(n)
	p.next.Store(0)
	p.left.Store(int32(helpers) + 1)
	for i := 0; i < helpers; i++ {
		p.start <- struct{}{}
	}
	for {
		s := p.next.Add(1) - 1
		if s >= int32(n) {
			break
		}
		fn(int(s))
	}
	if p.left.Add(-1) == 0 {
		p.done <- struct{}{}
	}
	recv(p.done, nil)
	p.fn = nil
}

// loop is one helper: wait for a round token, steal tasks until the cursor
// drains, signal if last out, repeat. A helper that drains the cursor and
// loops around may consume a second token of the same round and find no
// work — harmless, since tokens and left-decrements stay one-to-one.
func (p *shardPool) loop() {
	defer p.exited.Done()
	for recv(p.start, p.closed) {
		fn, n := p.fn, p.n
		for {
			s := p.next.Add(1) - 1
			if s >= n {
				break
			}
			fn(int(s))
		}
		if p.left.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// recv takes a value from c, polling for spinBudget before it blocks, and
// reports false if stop is closed first (a nil stop never is).
func recv(c, stop <-chan struct{}) bool {
	for deadline := time.Now().Add(spinBudget); time.Now().Before(deadline); runtime.Gosched() {
		select {
		case <-stop:
			return false
		case <-c:
			return true
		default:
		}
	}
	select {
	case <-stop:
		return false
	case <-c:
		return true
	}
}

// Close releases the agent's helper goroutines. The agent stays usable — the
// next parallel Update lazily respawns the pool — so Close is only about not
// parking idle goroutines past the agent's working life (Train calls it on
// return); the helpers have exited when it returns. A one-worker agent never
// spawns any, and Close on it is a no-op.
func (t *TD3) Close() {
	if t.pool != nil {
		close(t.pool.closed)
		t.pool.exited.Wait() // a spinning helper polls closed, a parked one wakes on it
		t.pool = nil
	}
}

// reduceShards folds the per-shard gradients selected by pick into shard
// 0's accumulator with a fixed pairwise (stride-doubling) tree, turns the
// batch sum into the clipped batch mean, and returns it with whether it is
// finite (a poisoned one must not reach the optimizer). The fold order
// depends only on the shard count, never on which worker produced which
// shard, so the result is bit-identical for every worker count. The last
// fold and the finish are one pass (finishFold).
func (t *TD3) reduceShards(pick func(*updateShard) *nn.Grads) (*nn.Grads, bool) {
	n := len(t.shards)
	stride := 1
	for ; 2*stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			pick(&t.shards[i]).Add(pick(&t.shards[i+stride]))
		}
	}
	g := pick(&t.shards[0])
	var last *nn.Grads
	if stride < n {
		last = pick(&t.shards[stride])
	}
	return g, finishFold(g, last, 1/float64(t.cfg.Batch), gradClip)
}

// finishFold adds o (nil: nothing) into g, scales g by scale, clips its
// global L2 norm to clip (clip ≤ 0: no clipping), and reports whether every
// element is finite — Grads.Add, Grads.Scale, a norm clip and a finiteness
// scan bit for bit, but in one pass over g: each element is added, scaled,
// squared into one serial sum in W[0], B[0], W[1], B[1], … order, and
// checked there. The clip rescale is a second pass, taken only when the
// norm exceeds clip. The verdict can be read before it because clipping
// keeps a finite element finite and a non-finite one non-finite (an
// infinite element makes the norm infinite, the scale 0, and 0·Inf NaN).
func finishFold(g, o *nn.Grads, scale, clip float64) bool {
	var sq, nonFinite float64
	for i := range g.W {
		var ow, ob []float64
		if o != nil {
			ow, ob = o.W[i], o.B[i]
		}
		sq, nonFinite = finishSlice(g.W[i], ow, scale, sq, nonFinite)
		sq, nonFinite = finishSlice(g.B[i], ob, scale, sq, nonFinite)
	}
	if norm := math.Sqrt(sq); clip > 0 && norm > clip {
		g.Scale(clip / norm)
	}
	return nonFinite == 0
}

// finishSlice is finishFold over one slice (o nil: nothing to add),
// continuing the sum of squares sq and the sum nonFinite of x − x, which is
// +0 while every x is finite and NaN from the first that is not.
func finishSlice(g, o []float64, scale, sq, nonFinite float64) (float64, float64) {
	if o == nil {
		for j, x := range g {
			x = scale * x
			g[j] = x
			sq += x * x
			nonFinite += x - x
		}
		return sq, nonFinite
	}
	o = o[:len(g)]
	for j, x := range g {
		x = scale * (x + o[j])
		g[j] = x
		sq += x * x
		nonFinite += x - x
	}
	return sq, nonFinite
}

func pickC1(s *updateShard) *nn.Grads    { return s.c1G }
func pickC2(s *updateShard) *nn.Grads    { return s.c2G }
func pickActor(s *updateShard) *nn.Grads { return s.actorG }
