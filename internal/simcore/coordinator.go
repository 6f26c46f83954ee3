package simcore

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements conservative space-parallel discrete-event execution
// (classic null-message / time-window DES): a Coordinator advances a set of
// Engines — one per topology shard, each on its own goroutine — in lock-step
// half-open windows [W, W+L), where the window L is the minimum inter-shard
// lookahead (for the network emulator: the smallest propagation delay of any
// link whose far end lives in another shard). Any event one shard emits for
// another therefore fires at least one full window in the future, so shards
// never need to see each other's state mid-window; cross-shard events are
// exchanged only at window barriers.
//
// Synchronization is decentralized: there is no coordinator goroutine
// handing out windows over channels. Every shard worker runs the same
// deterministic control loop — compute the next window from state every
// shard published before the last barrier, execute it, publish, synchronize
// on a sense-reversing barrier — so each window costs one barrier episode
// when nothing crossed shards (the common case for loosely coupled
// topologies) and two when an exchange phase is needed. Published state
// (per-shard next-event times and exchange-needed flags) is double-buffered
// by barrier parity: a round writes buffer p while everyone still reading
// buffer 1-p finishes, and the barrier between rounds makes the flip safe,
// so one barrier per round suffices without read/write races.
//
// Determinism: within a shard, execution is the ordinary sequential engine.
// Every worker computes the window sequence from identical published
// snapshots, so all workers agree on every window boundary and on whether
// an exchange phase runs — control flow never depends on goroutine timing.
// Everything that crosses a barrier is ordered by a total key before it
// touches a destination engine — injected events by (at, schedule time,
// source shard, per-source emission order), and the observed event stream
// by (at, shard) — so a sharded run is bit-reproducible regardless of
// goroutine scheduling, and its merged event stream folds to the same
// digest as the sequential run of the same scenario (the stream digest
// folds firing times in nondecreasing order, which both executions share;
// see internal/simcheck).

// xev is one cross-shard event waiting at a barrier.
type xev struct {
	at      time.Duration
	schedAt time.Duration // emission virtual time, preserved across the barrier
	src     int32         // emitting shard — tie-break after (at, schedAt)
	ord     uint32        // per-source emission order — final tie-break
	fn      func(any)
	arg     any
}

// evRec is one executed event buffered for merged hook delivery.
type evRec struct {
	at  time.Duration
	seq uint64
}

// xevSorter orders barrier injections by (at, schedAt, src, ord) — the same
// (at, schedAt) key the destination heap sorts by, then a deterministic
// source tie-break so insertion order (which decides residual ties) never
// depends on goroutine scheduling. It is a named pointer receiver so
// sort.Sort gets an already-boxed interface value and the per-window sort
// allocates nothing.
type xevSorter struct{ v []xev }

func (s *xevSorter) Len() int      { return len(s.v) }
func (s *xevSorter) Swap(i, j int) { s.v[i], s.v[j] = s.v[j], s.v[i] }
func (s *xevSorter) Less(i, j int) bool {
	a, b := &s.v[i], &s.v[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.ord < b.ord
}

// Shard is one partition's handle: its private engine plus the outgoing
// cross-shard buffers. Exactly one goroutine (the shard's worker, inside
// Coordinator.Run) touches a Shard's engine during a window; during the
// exchange phase each destination worker drains the out-buffers addressed
// to it, which the barriers order against the emitters' writes. All buffers
// are reused window to window, so steady-state cross-shard traffic
// allocates nothing.
type Shard struct {
	id  int
	eng *Engine
	out [][]xev // per destination shard
	win []evRec // events executed this window, for merged hook delivery
	ord uint32  // emission counter for deterministic tie-breaks

	inbox    xevSorter // injection scratch for the exchange phase, reused
	executed int64
}

// ID returns the shard's index.
func (s *Shard) ID() int { return s.id }

// Engine returns the shard's private engine.
func (s *Shard) Engine() *Engine { return s.eng }

// Send queues fn(arg) to fire at absolute virtual time at on shard dst. The
// event is injected into dst's engine at the next window barrier; at must be
// no earlier than the end of the current window (emission time plus the
// inter-shard lookahead guarantees this), which the coordinator verifies at
// the barrier. Call only from the emitting shard's own events.
func (s *Shard) Send(dst int, at time.Duration, fn func(any), arg any) {
	s.out[dst] = append(s.out[dst], xev{
		at: at, schedAt: s.eng.Now(),
		src: int32(s.id), ord: s.ord,
		fn: fn, arg: arg,
	})
	s.ord++
}

// barrier is a reusable sense-reversing barrier. Arrivals count up on an
// atomic; the last arriver resets the count and flips the global sense,
// releasing everyone spinning on it. Waiters spin briefly (yielding the
// processor each iteration, which matters on machines with fewer cores than
// shards) and then fall back to a condition variable, so an uneven window
// does not burn a core per waiting shard.
type barrier struct {
	n       int32
	arrived atomic.Int32
	sense   atomic.Uint32
	mu      sync.Mutex
	cond    *sync.Cond
}

const barrierSpin = 64

func (b *barrier) init(n int) {
	b.n = int32(n)
	b.cond = sync.NewCond(&b.mu)
}

// await blocks until all n participants arrive. local is the caller's
// private sense, flipped every episode; start it at 0.
func (b *barrier) await(local *uint32) {
	s := *local ^ 1
	*local = s
	if b.arrived.Add(1) == b.n {
		b.arrived.Store(0)
		b.mu.Lock()
		b.sense.Store(s)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < barrierSpin; i++ {
		if b.sense.Load() == s {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.sense.Load() != s {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// paddedInt64 and paddedUint32 keep per-shard published slots on separate
// cache lines so barrier-adjacent publishes do not false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

type paddedUint32 struct {
	v atomic.Uint32
	_ [60]byte
}

// noEvent is the published next-event time of an empty engine.
const noEvent = int64(math.MaxInt64)

// Coordinator advances a fixed set of shards in conservative lock-step
// windows. Construct with NewCoordinator; Run may be called once.
type Coordinator struct {
	shards []*Shard
	window time.Duration

	// merged is the event hook stolen from the primary engine (shard 0) at
	// construction: the coordinator feeds it the k-way time-ordered merge of
	// every shard's window stream, so an observer attached to the primary
	// engine (the simcheck checker) sees one globally ordered
	// event stream exactly as it would in a sequential run.
	merged func(at time.Duration, seq uint64)

	bar    barrier
	nextAt [2][]paddedInt64  // published next-event times, by barrier parity
	flags  [2][]paddedUint32 // published exchange-needed flags, by parity
	fault  atomic.Pointer[string]

	cursor []int // k-way merge cursors, reused
	rounds int64 // barrier episodes (written by shard 0's worker only)
	fused  int64 // windows that skipped the exchange phase (ditto)
	ran    bool

	// Window hook (SetWindowHook): hookDue is consulted by shard 0 after
	// each executed window; when it reports true the window is forced onto
	// the exchange path and hookFire runs on shard 0's worker between the
	// two exchange barriers — every other worker is parked, so the hook may
	// read state written by any shard during the window without racing.
	hookDue  func(end time.Duration) bool
	hookFire func(end time.Duration)
}

// NewCoordinator wraps engines (one per shard) for windowed execution.
// window is the global lookahead: every cross-shard Send must land at least
// one window after its emission. window <= 0 means the shards provably never
// exchange events, and each runs straight to the horizon in one window. Any
// event hook installed on engines[0] is taken over and fed the merged
// stream; hooks on other engines are rejected, since their events would
// bypass the merge.
func NewCoordinator(engines []*Engine, window time.Duration) *Coordinator {
	if len(engines) == 0 {
		panic("simcore: NewCoordinator with no engines")
	}
	c := &Coordinator{
		window: window,
		merged: engines[0].EventHook(),
		cursor: make([]int, len(engines)),
	}
	c.bar.init(len(engines))
	for p := 0; p < 2; p++ {
		c.nextAt[p] = make([]paddedInt64, len(engines))
		c.flags[p] = make([]paddedUint32, len(engines))
	}
	for i, eng := range engines {
		if i > 0 && eng.EventHook() != nil {
			panic("simcore: NewCoordinator: event hook on a non-primary engine")
		}
		s := &Shard{
			id:  i,
			eng: eng,
			out: make([][]xev, len(engines)),
		}
		if c.merged != nil {
			s := s
			eng.SetEventHook(func(at time.Duration, seq uint64) {
				s.win = append(s.win, evRec{at: at, seq: seq})
			})
		}
		c.shards = append(c.shards, s)
	}
	return c
}

// Shard returns shard i's handle (for wiring emitters before Run).
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// SetWindowHook installs a barrier-synchronized observer of window
// boundaries. After every executed window [w, end), shard 0 evaluates
// due(end); when it returns true the window takes the exchange path (two
// barriers) and fire(end) runs on shard 0's worker while every other worker
// waits at the second barrier — at that point all events before end have
// executed on every shard, and no shard is mutating its state, so fire may
// merge per-shard accumulators written during the window. Both callbacks
// must depend only on end and the hook's own state (never on goroutine
// timing), keeping the window sequence deterministic; neither may schedule
// events or touch any engine, so an observed run stays digest-identical to
// a bare one. Call before Run.
func (c *Coordinator) SetWindowHook(due func(end time.Duration) bool, fire func(end time.Duration)) {
	if c.ran {
		panic("simcore: SetWindowHook after Run")
	}
	c.hookDue, c.hookFire = due, fire
}

// ExecutedPerShard returns how many events each shard executed. Valid after
// Run returns.
func (c *Coordinator) ExecutedPerShard() []int64 {
	out := make([]int64, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.executed
	}
	return out
}

// BarrierRounds reports how many barrier episodes Run used: one per fused
// window, two per window with an exchange phase. Valid after Run returns.
func (c *Coordinator) BarrierRounds() int64 { return c.rounds }

// FusedWindows reports how many windows skipped the exchange phase — no
// shard had emitted cross-shard events or buffered hook records, so the
// second barrier and the injection pass were elided. Valid after Run
// returns.
func (c *Coordinator) FusedWindows() int64 { return c.fused }

// Run executes all shards to the horizon (events at exactly the horizon
// fire, matching Engine.Run) and returns the total number of events
// executed. Afterwards every engine's clock sits at exactly the horizon and
// the primary engine's original event hook is restored. A lookahead
// violation detected by any worker is re-raised as a panic on the caller's
// goroutine.
func (c *Coordinator) Run(horizon time.Duration) int64 {
	if c.ran {
		panic("simcore: Coordinator.Run re-entered")
	}
	c.ran = true

	stop := horizon + 1 // exclusive bound: events at exactly horizon fire
	if stop < horizon {
		stop = horizon // Duration overflow guard; unreachable in practice
	}
	window := c.window
	if window <= 0 {
		// No cross-shard edges exist: one window to the end, fully parallel.
		window = stop
	}

	// Workers read buffer (phase-1)&1 at the top of their first round; seed
	// it here, before the goroutines start, so round one sees every shard.
	for i, s := range c.shards {
		c.nextAt[1][i].v.Store(nextAtOf(s.eng))
	}

	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			c.worker(s, stop, window)
		}(s)
	}
	wg.Wait()

	for _, s := range c.shards {
		if s.eng.Now() < horizon {
			s.eng.AdvanceTo(horizon)
		}
	}
	if c.merged != nil {
		c.shards[0].eng.SetEventHook(c.merged)
	}
	if f := c.fault.Load(); f != nil {
		panic(*f)
	}
	var total int64
	for _, s := range c.shards {
		total += s.executed
	}
	return total
}

// worker is one shard's control loop. Every worker runs the identical
// deterministic sequence of windows: all inputs to control-flow decisions
// (the global minimum next-event time, the exchange-needed flags, the
// fault slot) are read from snapshots that a barrier separates from their
// writes, so the workers never disagree on a window boundary, on whether
// an exchange phase runs, or on when to stop — the loop needs no central
// dispatcher.
func (c *Coordinator) worker(s *Shard, stop, window time.Duration) {
	var sense uint32
	phase := 0 // barrier episodes completed; selects the publish buffer
	w := time.Duration(0)
	for {
		// Global minimum next-event time, from the snapshot every shard
		// published before the last barrier. Identical on every worker.
		read := c.nextAt[(phase-1)&1]
		m := noEvent
		for i := range read {
			if v := read[i].v.Load(); v < m {
				m = v
			}
		}
		if m >= int64(stop) {
			return // drained (noEvent) or nothing before the horizon
		}
		// Skip idle stretches: no shard has an event before m, and with no
		// events there can be no cross-shard sends, so jumping the window
		// start to m is free and keeps sparse phases (startup, drained
		// endgames) from costing one barrier per empty window.
		if t := time.Duration(m); t > w {
			w = t
		}
		end := w + window
		if end > stop || end < w {
			end = stop
		}

		s.executed += int64(s.eng.RunUntil(end))

		// Publish into the parity buffer readers flip to after the next
		// barrier; the buffer written two episodes ago is only re-read
		// before that barrier, so a single barrier orders the flip.
		write := phase & 1
		c.nextAt[write][s.id].v.Store(nextAtOf(s.eng))
		flag := uint32(0)
		for _, buf := range s.out {
			if len(buf) > 0 {
				flag = 1
				break
			}
		}
		if c.merged != nil && len(s.win) > 0 {
			flag = 1
		}
		// The window hook needs the parked-workers guarantee of the exchange
		// phase, so a due window publishes the exchange flag even when
		// nothing crossed shards. Only shard 0 consults the hook; the flag
		// propagates the decision to every worker.
		fireHook := false
		if s.id == 0 && c.hookDue != nil && c.hookDue(end) {
			fireHook = true
			flag = 1
		}
		c.flags[write][s.id].v.Store(flag)

		c.bar.await(&sense)
		phase++
		if s.id == 0 {
			c.rounds++
		}

		needExchange := false
		for i := range c.flags[write] {
			if c.flags[write][i].v.Load() != 0 {
				needExchange = true
				break
			}
		}
		if needExchange {
			// Exchange phase: each destination drains the buffers addressed
			// to it and injects into its own engine, then re-publishes its
			// next-event time (injections may be earlier than local work).
			c.inject(s, end)
			c.nextAt[phase&1][s.id].v.Store(nextAtOf(s.eng))
			if s.id == 0 {
				c.deliverMerged()
				if fireHook {
					c.hookFire(end)
				}
			}
			c.bar.await(&sense)
			phase++
			if s.id == 0 {
				c.rounds++
			}
			if c.fault.Load() != nil {
				return
			}
		} else if s.id == 0 {
			// Fused window: nothing crossed shards and no hook records are
			// buffered, so the exchange phase — and its barrier — is elided.
			c.fused++
		}
		w = end
	}
}

// nextAtOf is an engine's next-event time as a publishable int64.
func nextAtOf(e *Engine) int64 {
	if at, ok := e.NextAt(); ok {
		return int64(at)
	}
	return noEvent
}

// deliverMerged feeds the window's executed events to the stolen primary
// hook in global (at, shard) order. Each shard's buffer is already
// nondecreasing in at, so a k-way merge suffices; ties across shards are
// broken by shard id, which keeps delivery deterministic (equal-time events
// fold identically into the stream digest in any order). Runs on shard 0's
// worker during the exchange phase, after the first barrier ordered it
// against every shard's buffer writes.
func (c *Coordinator) deliverMerged() {
	if c.merged == nil {
		return
	}
	for i := range c.cursor {
		c.cursor[i] = 0
	}
	for {
		best := -1
		var bestAt time.Duration
		for i, s := range c.shards {
			if j := c.cursor[i]; j < len(s.win) {
				if best < 0 || s.win[j].at < bestAt {
					best, bestAt = i, s.win[j].at
				}
			}
		}
		if best < 0 {
			break
		}
		rec := c.shards[best].win[c.cursor[best]]
		c.cursor[best]++
		c.merged(rec.at, rec.seq)
	}
	for _, s := range c.shards {
		s.win = s.win[:0]
	}
}

// inject drains every source's buffer addressed to shard s and injects the
// events into s's engine in (at, schedAt, src, ord) order. end is the
// window boundary just executed: every injection must fire at or after it,
// or the emitting shard under-estimated its lookahead — a programming error
// worth dying loudly for, because the destination may already have executed
// past the event's time. Workers cannot panic across goroutines, so the
// violation is parked in the fault slot; every worker checks it after the
// exchange barrier and Run re-raises it on the caller.
func (c *Coordinator) inject(s *Shard, end time.Duration) {
	s.inbox.v = s.inbox.v[:0]
	for _, src := range c.shards {
		buf := src.out[s.id]
		if len(buf) == 0 {
			continue
		}
		s.inbox.v = append(s.inbox.v, buf...)
		for i := range buf {
			buf[i].fn, buf[i].arg = nil, nil
		}
		src.out[s.id] = buf[:0]
	}
	if len(s.inbox.v) == 0 {
		return
	}
	sort.Sort(&s.inbox)
	for i := range s.inbox.v {
		ev := &s.inbox.v[i]
		if ev.at < end {
			msg := fmt.Sprintf("simcore: cross-shard event at %v delivered after window end %v (lookahead violated)", ev.at, end)
			c.fault.CompareAndSwap(nil, &msg)
			return
		}
		s.eng.InjectArg(ev.at, ev.schedAt, ev.fn, ev.arg)
		ev.fn, ev.arg = nil, nil
	}
}
