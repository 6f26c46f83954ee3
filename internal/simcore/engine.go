// Package simcore provides a deterministic discrete-event simulation engine:
// a virtual clock, a time-ordered event queue, and seeded random number
// generation. It is the foundation of the network emulator in
// internal/netsim and of the RL training environments.
package simcore

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. Events with equal timestamps fire in
// causal order: first by the virtual time they were *scheduled* at, then by
// insertion sequence (FIFO). In a single-engine run insertion order is
// already nondecreasing in schedule time — the clock never moves backwards —
// so the schedAt key changes nothing there; its purpose is sharded runs,
// where the coordinator injects cross-shard events at window barriers
// (insertion-late) but stamps them with their original schedule time, which
// restores the exact tie order a sequential replay would have produced.
//
// Events are pooled: once an event has fired (or a cancelled event has been
// drained), the engine recycles its storage for a future ScheduleArg call.
// Callers therefore never hold *Event directly — ScheduleArg returns a Timer
// handle carrying a generation number, so operations on a stale handle are
// safe no-ops instead of corrupting an unrelated recycled event.
type Event struct {
	at      time.Duration
	schedAt time.Duration
	seq     uint64

	// argFn+arg lets hot paths schedule a per-object callback without
	// allocating a fresh closure per event.
	argFn func(any)
	arg   any

	// index is the event's heap slot when >= 0, idxWheel (-2) while parked
	// in a timer-wheel slot, and idxFree (-1) when not queued at all.
	index     int
	gen       uint64 // bumped on recycle; Timer handles check it
	cancelled bool
}

// Timer is a cancellable handle to a scheduled event. The zero value is an
// inert handle: Cancel and Active are no-ops on it. Handles are plain
// values; copying one is fine.
type Timer struct {
	ev  *Event
	gen uint64
}

// Cancel prevents the pending event from firing. Cancelling an event that
// has already fired, was already cancelled, or whose storage has been
// recycled for a newer event is a no-op.
func (t Timer) Cancel() {
	if t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancelled = true
	}
}

// Active reports whether the event is still queued and uncancelled. Queued
// means resident in the heap or parked in a timer-wheel slot — wheel
// residency is an internal staging detail, not a semantic difference.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled && t.ev.index != idxFree
}

// At reports the virtual time at which the event fires (0 for inert or
// recycled handles).
func (t Timer) At() time.Duration {
	if t.ev == nil || t.ev.gen != t.gen {
		return 0
	}
	return t.ev.at
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by
// (time, schedule time, sequence).
// Children of slot i live at 4i+1..4i+4 and its parent at (i-1)/4, so the
// tree is half as deep as a binary heap: pushes (which only walk up) compare
// against half as many ancestors, and a deep queue keeps more of the
// frequently-touched top levels in cache. Pops scan up to four children per
// level, but levels are cheap to scan — the four *Event pointers are
// adjacent — and there are half as many of them.
//
// Because (at, schedAt, seq) is a total order (seq is unique per event), the
// pop sequence is independent of heap shape: any arity yields the same event
// order, so golden simcheck digests are unaffected by this layout.
type eventHeap []*Event

func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up to its position.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	ev := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	top.index = idxFree
	if n == 0 {
		return top
	}
	// Sift the displaced last element down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if eventBefore(q[j], q[m]) {
				m = j
			}
		}
		if !eventBefore(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
	return top
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	queue   timerWheel
	nextSeq uint64
	running bool

	// free is the event free-list: fired/drained events are recycled here so
	// steady-state simulation schedules without heap allocation (packet-level
	// runs schedule one event per packet hop).
	free []*Event

	// slab batches the allocations that grow the event population: when the
	// free-list is empty, alloc carves the next event out of this block
	// instead of paying one heap allocation per new in-flight event while a
	// fresh engine ramps up to its working set.
	slab []Event

	// eventHook, when non-nil, observes every executed event (its firing
	// time and sequence number) just before the callback runs. The
	// correctness harness (internal/simcheck) uses it to verify clock
	// monotonicity and to fold the full event stream into a digest, so two
	// runs of the same scenario can be compared bit-for-bit.
	eventHook func(at time.Duration, seq uint64)
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending reports how many events are queued (including cancelled ones that
// have not yet been drained).
func (e *Engine) Pending() int { return e.queue.size() }

// NextAt reports the firing time of the earliest queued event. ok is false
// when the queue is empty. Cancelled events still count: they occupy the
// queue until drained, and treating them as real keeps the answer cheap —
// amortized O(1), with an occasional wheel-slot migration to establish the
// heap top as the global minimum.
func (e *Engine) NextAt() (at time.Duration, ok bool) {
	ev := e.queue.min()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// alloc takes an event from the free-list (or allocates one) and enqueues
// it at the given time, stamped as scheduled now.
func (e *Engine) alloc(at time.Duration) *Event {
	return e.allocSched(at, e.now)
}

// allocSched is alloc with an explicit schedule stamp. The stamp is part of
// the queue ordering key, so it must be final before the event is enqueued —
// mutating it afterwards would corrupt the heap invariant for equal-time
// ties. InjectArg passes the cross-shard origin time here.
func (e *Engine) allocSched(at, schedAt time.Duration) *Event {
	if at < e.now {
		panic(fmt.Sprintf("simcore: schedule at %v before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		if len(e.slab) == 0 {
			e.slab = make([]Event, 64)
		}
		ev = &e.slab[0]
		e.slab = e.slab[1:]
	}
	ev.at = at
	ev.schedAt = schedAt
	ev.seq = e.nextSeq
	ev.cancelled = false
	e.nextSeq++
	e.queue.push(ev, e.now)
	return ev
}

// release returns a fired or drained event to the free-list, invalidating
// outstanding Timer handles via the generation counter.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.argFn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// ScheduleArg queues fn(arg) at absolute virtual time at and returns a
// cancellable handle. It takes a long-lived callback plus a per-event
// argument, so hot paths (one event per packet hop) do not allocate a
// closure per call. Scheduling in the past (before Now) panics: it always
// indicates a simulation bug, and silently clamping would corrupt causality.
func (e *Engine) ScheduleArg(at time.Duration, fn func(any), arg any) Timer {
	ev := e.alloc(at)
	ev.argFn = fn
	ev.arg = arg
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleArgAfter queues fn(arg) after delay d from the current time.
func (e *Engine) ScheduleArgAfter(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// InjectArg queues fn(arg) at time at, stamped as if it had been scheduled at
// virtual time schedAt. The shard coordinator uses it to deliver cross-shard
// events at window barriers: the event was logically scheduled on its source
// shard at schedAt (< at, by the lookahead), and carrying that stamp into the
// destination heap makes equal-time ties resolve exactly as a sequential
// replay would — by who scheduled first, not by who happened to be inserted
// first. schedAt after at panics: such an event would claim to be scheduled
// after it fires.
func (e *Engine) InjectArg(at, schedAt time.Duration, fn func(any), arg any) Timer {
	if schedAt > at {
		panic(fmt.Sprintf("simcore: inject at %v scheduled later, at %v", at, schedAt))
	}
	ev := e.allocSched(at, schedAt)
	ev.argFn = fn
	ev.arg = arg
	return Timer{ev: ev, gen: ev.gen}
}

// SetEventHook registers fn to observe every executed event. The hook runs
// on the simulation goroutine immediately before each event's callback, with
// the event's firing time and global sequence number. A nil fn detaches the
// hook. At most one hook is registered at a time; an observer that needs to
// stack on another reads the current hook with EventHook and chains it
// inside its own.
func (e *Engine) SetEventHook(fn func(at time.Duration, seq uint64)) {
	e.eventHook = fn
}

// EventHook returns the currently registered hook (nil if none), so a new
// observer can chain the previous one instead of displacing it.
func (e *Engine) EventHook() func(at time.Duration, seq uint64) {
	return e.eventHook
}

// Run executes events in time order until the queue empties or the horizon
// is reached. Events scheduled exactly at the horizon still
// fire; events strictly after it remain queued. It returns the number of
// events executed.
func (e *Engine) Run(horizon time.Duration) int {
	executed := e.exec(horizon, true)
	if e.now < horizon {
		// Advance the clock to the horizon so repeated Run calls observe
		// monotonic time even when the queue drains early.
		e.now = horizon
	}
	return executed
}

// RunUntil executes events strictly before stop — the half-open window
// [Now, stop) the shard coordinator advances engines by. Unlike Run it does
// not advance the clock past the last executed event, so an event injected
// for exactly time stop can still be scheduled afterwards. It returns the
// number of events executed.
func (e *Engine) RunUntil(stop time.Duration) int {
	return e.exec(stop, false)
}

// exec is the shared event loop: it fires events with at < bound, plus
// at == bound when inclusive.
func (e *Engine) exec(bound time.Duration, inclusive bool) int {
	if e.running {
		panic("simcore: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	executed := 0
	for {
		ev := e.queue.min()
		if ev == nil || ev.at > bound || (!inclusive && ev.at == bound) {
			break
		}
		e.queue.popMin()
		if ev.cancelled {
			e.release(ev)
			continue
		}
		e.now = ev.at
		if e.eventHook != nil {
			e.eventHook(ev.at, ev.seq)
		}
		ev.argFn(ev.arg)
		executed++
		e.release(ev)
	}
	return executed
}

// AdvanceTo moves the idle clock forward to t without executing anything.
// The shard coordinator uses it to leave every engine at exactly the run
// horizon after the final window. Moving the clock backwards, or advancing
// it mid-Run, panics — both would corrupt causality.
func (e *Engine) AdvanceTo(t time.Duration) {
	if e.running {
		panic("simcore: AdvanceTo during Run")
	}
	if t < e.now {
		panic(fmt.Sprintf("simcore: AdvanceTo %v before now %v", t, e.now))
	}
	e.now = t
}
