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
// busy multi-flow simulation keeps queued).
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
		deep.ScheduleArg(24*time.Hour+time.Duration(i), nop, nil)
	}
	if avg := testing.AllocsPerRun(100, func() {
		deep.ScheduleArg(deep.Now()+time.Minute, nop, nil).Cancel()
		deep.Run(deep.Now() + time.Minute)
	}); avg != 0 {
		t.Errorf("deep-queue schedule+cancel allocates %v per event, want 0", avg)
	}
	if deep.Pending() != 1024 {
		t.Fatalf("deep queue holds %d events, want the 1024 parked ones", deep.Pending())
	}
}
