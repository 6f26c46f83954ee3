package simcore

import (
	"sync/atomic"
	"testing"
	"time"
)

// Two shards ping-ponging an event back and forth with a 10ms one-way
// lookahead must execute alternately and deterministically.
func TestCoordinatorPingPong(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine()}
	c := NewCoordinator(engs, 10*time.Millisecond)
	s0, s1 := c.Shard(0), c.Shard(1)

	var trace []string
	var bounce0, bounce1 func(any)
	bounce0 = func(any) { // runs on shard 0
		trace = append(trace, "s0@"+engs[0].Now().String())
		s0.Send(1, engs[0].Now()+10*time.Millisecond, bounce1, nil)
	}
	bounce1 = func(any) { // runs on shard 1
		trace = append(trace, "s1@"+engs[1].Now().String())
		s1.Send(0, engs[1].Now()+10*time.Millisecond, bounce0, nil)
	}
	schedule(engs[0], 0, func() { bounce0(nil) })

	total := c.Run(45 * time.Millisecond)
	if total != 5 {
		t.Fatalf("executed %d events, want 5", total)
	}
	want := []string{"s0@0s", "s1@10ms", "s0@20ms", "s1@30ms", "s0@40ms"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	for i, e := range engs {
		if e.Now() != 45*time.Millisecond {
			t.Fatalf("shard %d clock %v, want 45ms", i, e.Now())
		}
	}
	per := c.ExecutedPerShard()
	if per[0] != 3 || per[1] != 2 {
		t.Fatalf("per-shard executed %v, want [3 2]", per)
	}
}

// The merged hook on the primary engine must observe every event from every
// shard in nondecreasing time order, and be restored after Run.
func TestCoordinatorMergedHookOrderAndRestore(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine(), NewEngine()}
	var ats []time.Duration
	orig := func(at time.Duration, seq uint64) { ats = append(ats, at) }
	engs[0].SetEventHook(orig)

	c := NewCoordinator(engs, 5*time.Millisecond)
	nop := func() {}
	// Interleaved local events on all shards, no cross traffic.
	for i, e := range engs {
		for k := 0; k < 10; k++ {
			schedule(e, time.Duration(i+3*k)*time.Millisecond, nop)
		}
	}
	total := c.Run(50 * time.Millisecond)
	if total != 30 {
		t.Fatalf("executed %d, want 30", total)
	}
	if len(ats) != 30 {
		t.Fatalf("hook saw %d events, want 30", len(ats))
	}
	for i := 1; i < len(ats); i++ {
		if ats[i] < ats[i-1] {
			t.Fatalf("merged stream went backwards at %d: %v -> %v", i, ats[i-1], ats[i])
		}
	}
	// Hook restored: a direct event on the primary engine still reaches orig.
	n := len(ats)
	schedule(engs[0], 60*time.Millisecond, nop)
	engs[0].Run(60 * time.Millisecond)
	if len(ats) != n+1 {
		t.Fatal("primary engine hook not restored after coordinator run")
	}
}

// A hook on a non-primary engine would silently bypass the merge; the
// constructor must reject it.
func TestCoordinatorRejectsSecondaryHook(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine()}
	engs[1].SetEventHook(func(time.Duration, uint64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("hook on non-primary engine did not panic")
		}
	}()
	NewCoordinator(engs, time.Millisecond)
}

// A cross-shard send that lands inside the already-executed window is a
// lookahead violation and must panic at the barrier.
func TestCoordinatorLookaheadViolationPanics(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine()}
	c := NewCoordinator(engs, 10*time.Millisecond)
	s0 := c.Shard(0)
	schedule(engs[0], 0, func() {
		s0.Send(1, 2*time.Millisecond, func(any) {}, nil) // < window end
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	c.Run(20 * time.Millisecond)
}

// window <= 0 declares the shards independent: they run to the horizon in
// one window, fully parallel, with correct totals.
func TestCoordinatorIndependentShards(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine(), NewEngine(), NewEngine()}
	var fired atomic.Int64
	for _, e := range engs {
		for k := 0; k < 100; k++ {
			schedule(e, time.Duration(k)*time.Millisecond, func() { fired.Add(1) })
		}
	}
	c := NewCoordinator(engs, 0)
	total := c.Run(200 * time.Millisecond)
	if total != 400 || fired.Load() != 400 {
		t.Fatalf("executed %d (fired %d), want 400", total, fired.Load())
	}
}

// Same-time cross-shard sends from different sources must be injected in
// (at, src, ord) order, independent of goroutine scheduling.
func TestCoordinatorCrossEventTieBreak(t *testing.T) {
	run := func() []int {
		engs := []*Engine{NewEngine(), NewEngine(), NewEngine()}
		c := NewCoordinator(engs, 10*time.Millisecond)
		var got []int
		rec := func(arg any) { got = append(got, arg.(int)) }
		for src := 1; src <= 2; src++ {
			src := src
			s := c.Shard(src)
			schedule(engs[src], 0, func() {
				// Two sends per source, all landing at the same instant on shard 0.
				s.Send(0, 15*time.Millisecond, rec, src*10)
				s.Send(0, 15*time.Millisecond, rec, src*10+1)
			})
		}
		c.Run(20 * time.Millisecond)
		return got
	}
	want := []int{10, 11, 20, 21}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: injection order %v, want %v", trial, got, want)
			}
		}
	}
}

// Events scheduled exactly at the horizon fire, matching Engine.Run.
func TestCoordinatorHorizonInclusive(t *testing.T) {
	engs := []*Engine{NewEngine(), NewEngine()}
	c := NewCoordinator(engs, time.Millisecond)
	fired := 0
	schedule(engs[1], 30*time.Millisecond, func() { fired++ })
	schedule(engs[1], 30*time.Millisecond+1, func() { fired++ }) // past horizon
	c.Run(30 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (horizon-inclusive, not beyond)", fired)
	}
}

// Satellite: equal-timestamp FIFO must hold across the 64-event slab
// boundary — more than one slab's worth of same-time events, interleaved
// with enough churn that the free-list and a second slab both get exercised.
func TestEngineFIFOAcrossSlabBoundary(t *testing.T) {
	e := NewEngine()
	var got []int
	const n = 200 // > 3 slabs of 64
	for i := 0; i < n; i++ {
		i := i
		schedule(e, time.Millisecond, func() { got = append(got, i) })
	}
	if e.Pending() != n {
		t.Fatalf("Pending %d, want %d", e.Pending(), n)
	}
	e.Run(time.Millisecond)
	if len(got) != n {
		t.Fatalf("fired %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order at %d: %v...", i, got[:i+1])
		}
	}
	// Second wave at one timestamp, now served from the free-list: FIFO must
	// still follow scheduling order, not free-list (LIFO) order.
	got = got[:0]
	for i := 0; i < n; i++ {
		i := i
		schedule(e, 2*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run(2 * time.Millisecond)
	for i := range got {
		if got[i] != i {
			t.Fatalf("recycled same-time events out of order at %d", i)
		}
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt ok on empty queue")
	}
	schedule(e, 25, func() {})
	schedule(e, 15, func() {})
	if at, ok := e.NextAt(); !ok || at != 15 {
		t.Fatalf("NextAt = %v,%v, want 15,true", at, ok)
	}
}

func TestEngineRunUntilExclusive(t *testing.T) {
	e := NewEngine()
	fired := 0
	schedule(e, 10, func() { fired++ })
	schedule(e, 20, func() { fired++ }) // exactly at stop: must NOT fire
	n := e.RunUntil(20)
	if n != 1 || fired != 1 {
		t.Fatalf("RunUntil fired %d, want 1", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock %v, want 10 (RunUntil does not advance past last event)", e.Now())
	}
	// The boundary event is still schedulable-for and fires on the next window.
	n = e.RunUntil(21)
	if n != 1 || fired != 2 {
		t.Fatalf("second window fired %d, want 1 more", n)
	}
}

func TestEngineAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(50)
	if e.Now() != 50 {
		t.Fatalf("clock %v, want 50", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards AdvanceTo did not panic")
		}
	}()
	e.AdvanceTo(10)
}
