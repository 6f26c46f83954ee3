package simcore

import (
	"slices"
	"testing"
	"time"
)

// firing is one executed event as the event hook sees it.
type firing struct {
	at  time.Duration
	seq uint64
}

// residence names where t's event is queued: "heap" (within the heap
// horizon), "overflow" (heap-resident at or past level 2's span), "level0",
// "level1", "level2", or "none" when it is not queued.
func residence(e *Engine, t Timer) string {
	ev := t.ev
	switch {
	case !t.Active():
		return "none"
	case ev.index >= 0 && ev.at-e.queue.cur >= span2:
		return "overflow"
	case ev.index >= 0:
		return "heap"
	case slices.Contains(e.queue.slots[2][slotOf(ev.at, 2)], ev):
		return "level2"
	case slices.Contains(e.queue.slots[1][slotOf(ev.at, 1)], ev):
		return "level1"
	default:
		return "level0"
	}
}

// TestRearmMatchesCancelSchedule is Rearm's correctness property: over
// randomised self-rescheduling workloads that re-arm a pool of timers from
// inside callbacks — at their queued time and at a moved one, while they sit
// in the heap, a level-0, level-1 or level-2 wheel slot or the overflow
// heap, and after they fired — the executed (at, seq) stream equals the one
// Cancel+ScheduleArg produces, with the wheel and without it.
func TestRearmMatchesCancelSchedule(t *testing.T) {
	type stats struct {
		inPlace map[string]int // same-at re-arms of a queued timer, by residence
		moved   int            // re-arms of a queued timer to another time
		fresh   int            // re-arms of a fired timer
	}
	run := func(seed uint64, noWheel, useRearm bool) ([]firing, stats) {
		e := NewEngine()
		e.queue.noWheel = noWheel
		rng := NewRNG(seed)
		st := stats{inPlace: map[string]int{}}
		var stream []firing
		e.SetEventHook(func(at time.Duration, seq uint64) {
			stream = append(stream, firing{at, seq})
		})
		// Delays sit on a grid of slot0Gran/8, so many queued events share
		// a firing time and a re-keyed event must sift past its ties.
		randomDelay := func() time.Duration {
			var d time.Duration
			switch rng.Intn(5) {
			case 0:
				d = time.Duration(rng.Intn(int(slot0Gran)))
			case 1:
				d = time.Duration(rng.Intn(int(span0)))
			case 2:
				d = time.Duration(rng.Intn(int(span1)))
			case 3:
				d = span1 + time.Duration(rng.Intn(int(span2-span1)))
			default:
				d = span2 + time.Duration(rng.Intn(int(span2)))
			}
			return d &^ (slot0Gran/8 - 1)
		}
		timers := make([]Timer, 16)
		rearm := func(k int, at time.Duration, fn func(any)) {
			if useRearm {
				timers[k] = e.Rearm(timers[k], at, fn, k)
				return
			}
			timers[k].Cancel()
			timers[k] = e.ScheduleArg(at, fn, k)
		}
		budget := 4000
		var timerFired, spawn func(any)
		// poke re-arms a random timer: at its queued time when it is live
		// (half the time), else at a fresh random distance.
		poke := func() {
			k := rng.Intn(len(timers))
			tm := timers[k]
			at := e.Now() + randomDelay()
			switch {
			case tm.Active() && rng.Intn(2) == 0:
				at = tm.At()
				st.inPlace[residence(e, tm)]++
			case tm.Active():
				st.moved++
			default:
				st.fresh++
			}
			rearm(k, at, timerFired)
		}
		timerFired = func(arg any) {
			k := arg.(int)
			if budget > 0 && rng.Intn(2) == 0 {
				budget--
				// Re-arm the firing timer itself: its handle is still
				// current but no longer queued.
				rearm(k, e.Now()+randomDelay(), timerFired)
			}
		}
		spawn = func(any) {
			for i, n := 0, rng.Intn(3); i < n && budget > 0; i++ {
				budget--
				e.ScheduleArg(e.Now()+randomDelay(), spawn, nil)
			}
			for i, n := 0, rng.Intn(4); i < n && budget > 0; i++ {
				budget--
				poke()
			}
		}
		for k := range timers {
			timers[k] = e.ScheduleArg(e.Now()+randomDelay(), timerFired, k)
		}
		for i := 0; i < 64; i++ {
			e.ScheduleArg(e.Now()+randomDelay(), spawn, nil)
		}
		e.Run(20 * span2)
		return stream, st
	}
	for _, noWheel := range []bool{false, true} {
		for seed := uint64(1); seed <= 5; seed++ {
			ref, _ := run(seed, noWheel, false)
			got, st := run(seed, noWheel, true)
			if len(ref) < 1000 {
				t.Fatalf("noWheel=%v seed %d: only %d events — workload too thin", noWheel, seed, len(ref))
			}
			if !slices.Equal(got, ref) {
				i := 0
				for i < len(got) && i < len(ref) && got[i] == ref[i] {
					i++
				}
				t.Fatalf("noWheel=%v seed %d: Rearm stream diverges from Cancel+ScheduleArg at event %d of %d/%d",
					noWheel, seed, i, len(got), len(ref))
			}
			if st.moved == 0 || st.fresh == 0 {
				t.Fatalf("noWheel=%v seed %d: moved %d / fresh %d re-arms, want both", noWheel, seed, st.moved, st.fresh)
			}
			want := []string{"heap", "overflow", "level0", "level1", "level2"}
			if noWheel {
				want = []string{"heap", "overflow"}
			}
			for _, r := range want {
				if st.inPlace[r] == 0 {
					t.Fatalf("noWheel=%v seed %d: no in-place re-arm in %s (%v)", noWheel, seed, r, st.inPlace)
				}
			}
		}
	}
}

// TestRearmStaleHandleSchedulesFresh re-arms handles that no longer own a
// queued event — one whose storage now backs another event at the very same
// time, and one that was cancelled — and checks each schedules a fresh event
// while the storage's new tenant keeps its callback, time and handle.
func TestRearmStaleHandleSchedulesFresh(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(arg any) { order = append(order, arg.(string)) }

	stale := e.ScheduleArg(5, log, "first")
	e.Run(5)
	tenant := e.ScheduleArg(20, log, "tenant")
	if tenant.ev != stale.ev {
		t.Fatal("the tenant did not reuse the fired event's storage")
	}
	re := e.Rearm(stale, 20, log, "re-armed")
	if re == tenant || re.ev == tenant.ev {
		t.Fatal("re-arming a recycled handle took over its storage's new tenant")
	}
	if !tenant.Active() || tenant.At() != 20 {
		t.Fatalf("tenant disturbed: active=%v at=%v", tenant.Active(), tenant.At())
	}

	cancelled := e.ScheduleArg(30, log, "cancelled")
	cancelled.Cancel()
	back := e.Rearm(cancelled, 30, log, "revived")
	if back == cancelled {
		t.Fatal("re-arming a cancelled handle reused its event")
	}
	e.Run(40)
	want := []string{"first", "tenant", "re-armed", "revived"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
