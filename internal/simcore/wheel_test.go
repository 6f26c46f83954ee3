package simcore

import (
	"slices"
	"testing"
	"time"
)

// TestWheelPopOrderMatchesHeap is the wheel's core correctness property:
// for random schedules spread across heap-resident, level-0, level-1,
// level-2 and overflow distances — including events scheduled mid-run from
// inside callbacks — the wheel-fed engine must execute the exact event order
// a heap-only engine produces.
func TestWheelPopOrderMatchesHeap(t *testing.T) {
	run := func(seed uint64, noWheel bool) []uint64 {
		e := NewEngine()
		e.queue.noWheel = noWheel
		rng := NewRNG(seed)
		var order []uint64
		e.SetEventHook(func(at time.Duration, seq uint64) {
			order = append(order, seq)
		})
		// Delay spread: same-granule, level-0, level-1, level-2 and
		// overflow-horizon distances, with duplicates likely (ties exercise
		// the schedAt/seq keys). Each fired event reschedules a few
		// successors while budget remains, so scheduling also happens mid-run
		// at nonzero Now.
		randomDelay := func() time.Duration {
			switch rng.Intn(5) {
			case 0:
				return time.Duration(rng.Intn(int(slot0Gran)))
			case 1:
				return time.Duration(rng.Intn(int(span0)))
			case 2:
				return time.Duration(rng.Intn(int(span1)))
			case 3:
				return span1 + time.Duration(rng.Intn(int(span2-span1)))
			default:
				return span2 + time.Duration(rng.Intn(int(span2)))
			}
		}
		budget := 3000
		var spawn func()
		spawn = func() {
			for i, n := 0, rng.Intn(3); i < n && budget > 0; i++ {
				budget--
				schedule(e, e.Now()+randomDelay(), spawn)
			}
		}
		for i := 0; i < 64; i++ {
			budget--
			schedule(e, e.Now()+randomDelay(), spawn)
		}
		e.Run(10 * span2)
		return order
	}
	for seed := uint64(1); seed <= 5; seed++ {
		ref := run(seed, true)
		got := run(seed, false)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: wheel executed %d events, heap-only %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: pop order diverges at %d: wheel seq %d, heap seq %d",
					seed, i, got[i], ref[i])
			}
		}
		if len(ref) < 500 {
			t.Fatalf("seed %d: only %d events — spread too thin to exercise the wheel", seed, len(ref))
		}
	}
}

// TestWheelCancelAcrossSlotBoundaries cancels and re-arms timers parked at
// wheel distances (level 0, level 1, level 2, overflow) and checks that
// cancelled events never fire, replacements fire exactly once at the right
// time, and Active tracks wheel residency.
func TestWheelCancelAcrossSlotBoundaries(t *testing.T) {
	delays := []time.Duration{
		slot0Gran / 2,     // heap-resident from the start
		slot0Gran * 3,     // level 0
		slot0Gran + 1,     // level 0, just past the current granule
		span0 * 2,         // level 1
		span0 + slot0Gran, // level 1, just past level 0's horizon
		span1 * 2,         // level 2
		span1 + slot0Gran, // level 2, just past level 1's horizon
		span2 + time.Hour, // overflow heap
		span2,             // overflow heap, exactly level 2's horizon
	}
	e := NewEngine()
	fired := make(map[int]time.Duration)
	var timers []Timer
	for i, d := range delays {
		i, d := i, d
		timers = append(timers, schedule(e, e.Now()+d, func() { fired[i] = e.Now() }))
	}
	for i, tm := range timers {
		if !tm.Active() {
			t.Fatalf("timer %d (delay %v) not Active while queued", i, delays[i])
		}
	}
	// Cancel every other timer, then re-arm each cancelled slot at a shifted
	// time that crosses into a different wheel level.
	replacement := make(map[int]time.Duration)
	for i := 0; i < len(timers); i += 2 {
		timers[i].Cancel()
		if timers[i].Active() {
			t.Fatalf("timer %d still Active after Cancel", i)
		}
		nd := delays[(i+3)%len(delays)] + slot0Gran
		replacement[i] = nd
		i := i
		schedule(e, e.Now()+nd, func() { fired[100+i] = e.Now() })
	}
	e.Run(span2 + 2*time.Hour)
	for i, d := range delays {
		if i%2 == 0 {
			if _, ok := fired[i]; ok {
				t.Fatalf("cancelled timer %d fired", i)
			}
			want := replacement[i]
			if got, ok := fired[100+i]; !ok || got != want {
				t.Fatalf("replacement for %d: fired=%v at %v, want %v", i, ok, got, want)
			}
		} else if got, ok := fired[i]; !ok || got != d {
			t.Fatalf("timer %d: fired=%v at %v, want %v", i, ok, got, d)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
}

// TestWheelSlotAliasFiresOnTime schedules an event whose absolute level-1
// (then level-2) slot number aliases (mod slot count) a slot the cursor has
// already passed: the event must still fire at its exact time, after the
// cursor wraps around to its slot, and never early or late relative to
// neighbours.
func TestWheelSlotAliasFiresOnTime(t *testing.T) {
	for _, c := range []struct {
		level      int
		gran, span time.Duration
	}{{1, slot1Gran, span1}, {2, slot2Gran, span2}} {
		l := c.level
		e := NewEngine()
		// Drag the cursor off zero first so the wheel is mid-rotation.
		warm := c.gran + c.gran/2
		var warmAt time.Duration
		schedule(e, warm, func() { warmAt = e.Now() })
		e.Run(warm)
		if warmAt != warm {
			t.Fatalf("level %d: warmup fired at %v, want %v", l, warmAt, warm)
		}
		// Now Now ~ 1.5 granules. An event just under one span away lands
		// in a slot index the cursor has already cascaded this rotation.
		alias := e.Now() + c.span - c.gran/4
		near := e.Now() + c.span - c.gran - c.gran/4
		var got []time.Duration
		schedule(e, alias, func() { got = append(got, e.Now()) })
		schedule(e, near, func() { got = append(got, e.Now()) })
		if n := e.queue.count[l]; n != 2 {
			t.Fatalf("level %d: %d of the alias pair parked there, want 2", l, n)
		}
		e.Run(alias + time.Second)
		if len(got) != 2 || got[0] != near || got[1] != alias {
			t.Fatalf("level %d: alias firing order/time wrong: got %v, want [%v %v]", l, got, near, alias)
		}
	}
}

// TestWheelStaleHandleIsInert mirrors TestTimerStaleHandleIsInert for
// wheel-resident events: once a wheel-parked event fires and its storage is
// recycled for a new event, the old Timer handle must be inert — Cancel must
// not touch the recycled event, and Active/At must report dead.
func TestWheelStaleHandleIsInert(t *testing.T) {
	e := NewEngine()
	// Park in a level-1 slot so the event travels wheel -> level 0 -> heap
	// before firing and recycling.
	old := schedule(e, e.Now()+span0*2, func() {})
	if !old.Active() {
		t.Fatal("wheel-resident timer not Active")
	}
	e.Run(span0 * 2)
	if old.Active() {
		t.Fatal("fired timer still Active")
	}
	// Recycle the same Event storage for a replacement.
	var fired bool
	repl := schedule(e, e.Now()+span0, func() { fired = true })
	old.Cancel() // stale: must not cancel the recycled event
	if old.At() != 0 {
		t.Fatalf("stale handle At = %v, want 0", old.At())
	}
	if !repl.Active() {
		t.Fatal("replacement timer deactivated by stale Cancel")
	}
	e.Run(e.Now() + span0)
	if !fired {
		t.Fatal("recycled event killed by stale handle Cancel")
	}
}

// TestWheelDrainReanchors lets the wheel empty completely while virtual time
// runs far ahead, then schedules wheel-distance work again: the cursor must
// re-anchor to the clock instead of forcing every future event through the
// overflow heap, and ordering must hold across the re-anchor. A wheel that
// still holds an event — here only on level 2 — must not re-anchor: the jump
// would carry the cursor past that event's slot boundary without cascading
// it, and it would fire after events queued behind it.
func TestWheelDrainReanchors(t *testing.T) {
	e := NewEngine()
	var order []int
	schedule(e, e.Now()+slot0Gran*2, func() { order = append(order, 0) })
	e.Run(100 * span2) // drain, clock ends far past the cursor
	schedule(e, e.Now()+slot0Gran*3, func() { order = append(order, 1) })
	schedule(e, e.Now()+slot0Gran*2, func() { order = append(order, 2) })
	if e.queue.count[0] != 2 {
		t.Fatalf("post-drain wheel-distance events not parked in level 0: count=%v", e.queue.count)
	}
	e.Run(e.Now() + span0)
	if want := []int{0, 2, 1}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}

	// Only level 2 holds an event while the idle clock moves into that
	// event's level-2 slot; AdvanceTo (the coordinator's horizon step) moves
	// the clock without consulting the wheel.
	e = NewEngine()
	order = order[:0]
	far := 3*span1 + span1/2
	schedule(e, far, func() { order = append(order, 0) })
	if e.queue.count != [levels]int{0, 0, 1} {
		t.Fatalf("far event not parked on level 2 alone: count=%v", e.queue.count)
	}
	e.AdvanceTo(3*span1 + span1/4)
	schedule(e, e.Now()+slot0Gran*2, func() { order = append(order, 1) })
	schedule(e, far+span1/4, func() { order = append(order, 2) })
	e.Run(far + span1)
	if want := []int{1, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("order with level 2 occupied = %v, want %v", order, want)
	}
}

// TestFarTimersStayOutOfHeap pins what the wheel is for by a count rather
// than a time. The workload is shaped like the paper's Table 3 long/short
// run: 400 one-shot flow starts armed up front across 100 s, plus one
// self-rescheduling packet chain with 30-120 us gaps. The heap must then
// hold only the events due now: at most 2 at any pop here. Under the
// earlier two-level geometry (2^19 ns granule, 34 s horizon) every start
// past 34 s sat in the heap, which peaked at 260 events on this workload.
func TestFarTimersStayOutOfHeap(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(1)
	starts := 0
	start := func(any) { starts++ }
	for i := 0; i < 400; i++ {
		e.ScheduleArg(time.Duration(rng.Intn(int(100*time.Second))), start, nil)
	}
	var tick func(any)
	tick = func(any) {
		gap := 30*time.Microsecond + time.Duration(rng.Intn(int(90*time.Microsecond)))
		e.ScheduleArg(e.Now()+gap, tick, nil)
	}
	e.ScheduleArg(0, tick, nil)
	most, pops := 0, 0
	e.SetEventHook(func(time.Duration, uint64) {
		pops++
		most = max(most, len(e.queue.heap)+1) // +1: the event being popped
	})
	e.Run(100 * time.Second)
	if starts != 400 {
		t.Fatalf("%d of 400 flow starts fired", starts)
	}
	if pops < 800_000 {
		t.Fatalf("only %d pops: the chain did not run", pops)
	}
	if most > 2 {
		t.Fatalf("heap held up to %d events at a pop, want at most 2", most)
	}
}
