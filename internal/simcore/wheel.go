package simcore

import "time"

// timerWheel is a three-level hierarchical timer wheel (Varghese & Lauck's
// hashed hierarchical timing wheel) that fronts the 4-ary eventHeap. The
// dominant event population is self-rescheduling timers — pacing ticks, send
// timers, interval and record ticks — plus one-shot flow starts armed when a
// network is built, whose firing times are spread over microseconds to
// minutes. Keeping all of them in one heap makes every schedule and pop
// O(log n) against events that are nowhere near due; the wheel parks
// far-out events in O(1) slots and only migrates them into the heap when
// their slot comes due, so the heap holds just the events of the current
// granule and its log factor nearly vanishes.
//
// Geometry. Every level has slotCount (256) slots; level l's granule is
// 2^(16+8l) ns:
//
//	level 0: 65.5 us slots, span0 ~ 16.8 ms
//	level 1: 16.8 ms slots, span1 ~ 4.3 s
//	level 2: 4.3 s slots,   span2 ~ 18.3 min
//
// The level-0 granule is 65.5 us because that is one to two packet times on
// the 100-350 Mbps links of the paper figures: the heap then holds the few
// events due now rather than a window of upcoming ones (3.3 on average at a
// pop over the paper-figure runs, against 41.7 with a 2^19 ns granule and a
// 34 s horizon). Three levels put the paper's 100 s experiment horizons
// (Table 3's Poisson flow starts) inside the wheel; events at or past span2
// overflow into the heap, which handles any time.
//
// Ordering contract. The engine's observable pop order must remain the exact
// (at, schedAt, seq) total order of a pure heap — golden simcheck digests
// and sharded-parity tests compare it bit-for-bit. The wheel preserves it
// via one invariant:
//
//	(A) every queued event with at < cur+slot0Gran lives in the heap; an
//	    event is parked in a wheel slot only while at >= cur+slot0Gran.
//
// min() restores (A) before every peek: while the heap is empty or its top
// fires at or beyond cur+slot0Gran, it advances cur, flushing each level-0
// slot into the heap and cascading a higher-level slot down whenever cur
// reaches its boundary. Once the heap top fires inside [0, cur+slot0Gran),
// (A) says no wheel-resident event can fire earlier, so the heap top is the
// global minimum — and because migration happens strictly before the peek
// that observes it, ties re-resolve inside the heap by the full
// (at, schedAt, seq) key exactly as they would have in a heap-only engine.
// Slot membership never orders events; only the heap does.
//
// An event's slot is (at >> shift) mod 256, so the wheel needs no wraparound
// bookkeeping: an event whose absolute slot number aliases an already-passed
// slot index just waits for cur to come around again, which happens before it
// is due, because an event one span or more away goes one level up (or to the
// heap) instead.
type timerWheel struct {
	heap eventHeap

	// cur is the wheel cursor: level-0 slots at or before cur have been
	// flushed into the heap. It is aligned to slot0Gran and advances
	// monotonically, independently of (and possibly ahead of) the engine
	// clock.
	cur time.Duration

	count [levels]int // events parked per level
	slots [levels][slotCount][]*Event

	// slotBlock is the shared backing an empty slot carves its first
	// slotFirstCap entries of capacity from (see park).
	slotBlock []*Event

	// noWheel forces every push into the heap, turning the engine into the
	// pre-wheel heap-only implementation. Tests use it to prove the wheel-fed
	// pop order is identical to the reference order.
	noWheel bool
}

const (
	levels     = 3
	slotBits   = 8 // 256 slots per level
	slotCount  = 1 << slotBits
	slot0Shift = 16 // slot0Gran = 2^16 ns ~ 65.5 us

	slot0Gran = time.Duration(1) << slot0Shift
	slot1Gran = slot0Gran << slotBits // = span0 ~ 16.8 ms
	slot2Gran = slot1Gran << slotBits // = span1 ~ 4.3 s
	span0     = slot1Gran
	span1     = slot2Gran
	span2     = slot2Gran << slotBits // ~ 18.3 min

	// slotFirstCap is the capacity a slot gets on its first park, carved
	// from slotBlock, which is allocated slotFirstCap*64 entries at a time.
	slotFirstCap = 16
	slotBlockLen = slotFirstCap * 64
)

// Event index sentinels. Heap-resident events carry their heap slot (>= 0);
// wheel-resident events are parked outside the heap but still queued.
const (
	idxFree  = -1 // not queued: fired, drained, or never scheduled
	idxWheel = -2 // parked in a timer-wheel slot, not yet migrated to the heap
)

// slotOf is the index of at's slot on level l.
func slotOf(at time.Duration, l int) int {
	return int(at>>(slot0Shift+slotBits*l)) & (slotCount - 1)
}

// parked reports how many events wait in wheel slots.
func (w *timerWheel) parked() int {
	return w.count[0] + w.count[1] + w.count[2]
}

// size reports the total queued event count across heap and wheel,
// including cancelled-but-undrained events.
func (w *timerWheel) size() int {
	return len(w.heap) + w.parked()
}

// push enqueues ev, choosing heap or wheel slot by distance from cur.
// now is the engine clock, used only to re-anchor a fully drained wheel so
// cur does not lag arbitrarily far behind virtual time (which would push
// every future event into the overflow heap). The wheel must be empty on
// every level: a parked event's slot was chosen against the old cursor, and
// a jump could carry cur past that slot's boundary without cascading it.
func (w *timerWheel) push(ev *Event, now time.Duration) {
	if w.noWheel {
		w.heap.push(ev)
		return
	}
	if w.parked() == 0 {
		if anchor := now &^ (slot0Gran - 1); w.cur < anchor {
			w.cur = anchor
		}
	}
	w.place(ev)
}

// place puts ev in the heap or in the lowest wheel level whose span covers
// its distance from cur.
func (w *timerWheel) place(ev *Event) {
	d := ev.at - w.cur
	switch {
	case d < slot0Gran || d >= span2:
		// Inside the current granule (or behind a cursor that ran ahead of
		// the clock) invariant (A) requires the heap; past level 2's
		// horizon the heap is the overflow.
		w.heap.push(ev)
	case d < span0:
		w.park(ev, 0)
	case d < span1:
		w.park(ev, 1)
	default:
		w.park(ev, 2)
	}
}

// park appends ev to its level-l slot. A slot that has never held an event
// takes its first capacity from the shared slotBlock, so a fresh engine pays
// one allocation per 64 slots it touches instead of append's growth steps in
// every one; a slot that outgrows the carve reallocates privately (the
// three-index carve caps its capacity, so it never writes into a neighbour's
// share). Drained slots keep their capacity for reuse.
func (w *timerWheel) park(ev *Event, l int) {
	i := slotOf(ev.at, l)
	ev.index = idxWheel
	s := w.slots[l][i]
	if cap(s) == 0 {
		if len(w.slotBlock) < slotFirstCap {
			w.slotBlock = make([]*Event, slotBlockLen)
		}
		s = w.slotBlock[:0:slotFirstCap]
		w.slotBlock = w.slotBlock[slotFirstCap:]
	}
	w.slots[l][i] = append(s, ev)
	w.count[l]++
}

// min returns the globally earliest queued event (nil when empty), migrating
// wheel slots into the heap as needed to establish invariant (A)'s guarantee
// that the heap top is the global minimum.
func (w *timerWheel) min() *Event {
	for (len(w.heap) == 0 || w.heap[0].at-w.cur >= slot0Gran) && w.parked() > 0 {
		w.advance()
	}
	if len(w.heap) == 0 {
		return nil
	}
	return w.heap[0]
}

// popMin removes the heap top. Callers must have called min() immediately
// before, so the heap top is the global minimum.
func (w *timerWheel) popMin() *Event {
	return w.heap.popMin()
}

// advance moves cur forward one step, migrating due slots toward the heap.
// With level 0 empty nothing can be due before the next boundary of the
// lowest non-empty level, so cur jumps straight there. Every boundary cur
// lands on is cascaded, higher level first (a lower level's step or jump may
// land on a higher level's boundary too). Cascading re-places events by
// their distance from cur, so none lands in a slot that starts at cur: the
// order at a shared boundary moves no event.
func (w *timerWheel) advance() {
	switch {
	case w.count[0] > 0:
		w.cur += slot0Gran
	case w.count[1] > 0:
		w.cur = (w.cur &^ (slot1Gran - 1)) + slot1Gran
	default:
		w.cur = (w.cur &^ (slot2Gran - 1)) + slot2Gran
	}
	if w.cur&(slot2Gran-1) == 0 {
		w.cascade(2)
	}
	if w.cur&(slot1Gran-1) == 0 {
		w.cascade(1)
	}
	w.cascade(0)
}

// cascade re-places the level-l slot whose range starts at cur. Each event
// lands on a lower level or, if due within the entered granule, the heap;
// level 0 therefore flushes wholly into the heap. Nothing maps back into
// level l: the slot's range is one level-l granule, which is closer than
// level l's placement threshold, so re-placing never appends to the slice
// being drained.
func (w *timerWheel) cascade(l int) {
	i := slotOf(w.cur, l)
	s := w.slots[l][i]
	if len(s) == 0 {
		return
	}
	w.count[l] -= len(s)
	w.slots[l][i] = s[:0]
	for j, ev := range s {
		s[j] = nil
		w.place(ev)
	}
}
