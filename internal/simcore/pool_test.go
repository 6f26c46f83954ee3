package simcore

import (
	"testing"
	"time"
)

// TestEventPoolRecycles verifies that steady-state scheduling reuses event
// storage instead of growing the heap: after a warm-up, a schedule/fire
// cycle must not allocate.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine()
	var fired int
	var tick func()
	tick = func() {
		fired++
		if fired < 1000 {
			schedule(e, e.Now()+time.Millisecond, tick)
		}
	}
	schedule(e, e.Now()+time.Millisecond, tick)
	e.Run(2 * time.Second)
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
	// One event is in flight at a time, so the pool should hold roughly one
	// recycled event — not a thousand.
	if n := len(e.free); n > 4 {
		t.Fatalf("free-list holds %d events after a 1-in-flight run", n)
	}
}

// TestTimerStaleHandleIsInert verifies the generation counter: a handle to
// an event whose storage has been recycled must not cancel the new tenant.
func TestTimerStaleHandleIsInert(t *testing.T) {
	e := NewEngine()
	var stale Timer
	secondFired := false
	schedule(e, 10, func() {
		// stale's event has fired and its storage may back the later event;
		// cancelling through the old handle must be a no-op.
		stale.Cancel()
		if stale.Active() {
			t.Error("stale handle reports Active")
		}
		if stale.At() != 0 {
			t.Errorf("stale handle At() = %v, want 0", stale.At())
		}
	})
	stale = schedule(e, 5, func() {})
	e.Run(15)

	// Force recycling: the new event must fire even though a stale handle to
	// its storage was cancelled.
	ev := schedule(e, 20, func() { secondFired = true })
	_ = ev
	e.Run(30)
	if !secondFired {
		t.Fatal("event sharing recycled storage with a stale handle did not fire")
	}
}

func TestTimerCancelStopsRescheduledStorage(t *testing.T) {
	e := NewEngine()
	firedA, firedB := false, false
	a := schedule(e, 5, func() { firedA = true })
	a.Cancel()
	b := schedule(e, 7, func() { firedB = true })
	if a.Active() {
		t.Fatal("cancelled handle reports Active")
	}
	if !b.Active() {
		t.Fatal("fresh handle not Active")
	}
	e.Run(10)
	if firedA || !firedB {
		t.Fatalf("firedA=%v firedB=%v, want false/true", firedA, firedB)
	}
}

// TestScheduleArgAllocFree pins the simulator's hot path: once the
// free-list is warm, scheduling one event with ScheduleArg, running it and
// recycling it allocates nothing — and neither does scheduling and
// cancelling an event behind a deep queue (1024 pending events, about what a
// busy multi-flow simulation keeps queued), in the overflow heap or on the
// wheel's top level, nor re-arming a pending timer there with Rearm, which
// also leaves no cancelled twin queued.
func TestScheduleArgAllocFree(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func(any) { n++ }
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(e.Now()+time.Microsecond, fn, nil)
		e.Run(e.Now() + time.Microsecond)
	}); avg != 0 {
		t.Errorf("ScheduleArg+Run allocates %v per event, want 0", avg)
	}
	if n != 1001 {
		t.Fatalf("fired %d events, want 1001", n)
	}

	deep := NewEngine()
	nop := func(any) {}
	for i := 0; i < 1024; i++ {
		deep.ScheduleArg(1000*time.Hour+time.Duration(i), nop, nil)
	}
	// An hour out is past level 2's span: the event goes to the overflow heap.
	if avg := testing.AllocsPerRun(100, func() {
		deep.ScheduleArg(deep.Now()+time.Hour, nop, nil).Cancel()
		deep.Run(deep.Now() + time.Hour)
	}); avg != 0 {
		t.Errorf("deep-queue overflow schedule+cancel allocates %v per event, want 0", avg)
	}
	// A level-2 event cascades through one slot of each level on its way to
	// the heap, and a slot takes its first capacity on its first use, carved
	// from the wheel's shared block (measured 0.19 allocs/event over the
	// first rotation, against 1.13 when every slot grew its own slice).
	// Stepping by a sixteenth of level 2's span visits sixteen level-2 slots
	// and one slot each on levels 1 and 0, so one rotation (sixteen steps)
	// warms them all.
	level2 := func() {
		tm := deep.ScheduleArg(deep.Now()+span2/16, nop, nil)
		if deep.queue.count[2] != 1 {
			t.Fatalf("a %v timer is not parked on level 2: count=%v", span2/16, deep.queue.count)
		}
		tm.Cancel()
		deep.Run(deep.Now() + span2/16)
	}
	for i := 0; i < 16; i++ {
		level2()
	}
	if avg := testing.AllocsPerRun(100, level2); avg != 0 {
		t.Errorf("deep-queue level-2 schedule+cancel allocates %v per event, want 0", avg)
	}
	if deep.Pending() != 1024 {
		t.Fatalf("deep queue holds %d events, want the 1024 parked ones", deep.Pending())
	}

	// Re-arming a queued timer at its own time re-keys it in place: no
	// allocation, and no cancelled twin left behind in the queue.
	tm := deep.ScheduleArg(deep.Now()+time.Minute, nop, nil)
	if avg := testing.AllocsPerRun(100, func() {
		tm = deep.Rearm(tm, tm.At(), nop, nil)
	}); avg != 0 {
		t.Errorf("deep-queue Rearm allocates %v per call, want 0", avg)
	}
	if deep.Pending() != 1025 {
		t.Fatalf("deep queue holds %d events after re-arms, want 1025", deep.Pending())
	}
	tm.Cancel()
	deep.ScheduleArg(tm.At(), nop, nil)
	if deep.Pending() != 1026 {
		t.Fatalf("Cancel+ScheduleArg left %d events queued, want 1026 with the cancelled twin", deep.Pending())
	}
}
