package netsim

import (
	"time"

	"repro/internal/cc"
)

// Interval-driven schemes (Jury and the DRL baselines) consume statistics
// attributed to the control interval in which packets were *sent*, exactly
// as the paper's Fig. 3 action-feedback mechanism prescribes: the action
// enforced for interval t is paired with the ACK statistics of the packets
// transmitted during interval t, which arrive roughly one RTT later. The
// sender therefore buckets every packet by its send-interval index and
// delivers each interval's aggregate to the controller once all of the
// interval's packets have been acknowledged or declared lost.
//
// This matters for Jury specifically: the occupancy estimator (Eq. 5)
// inverts the relation between a rate change and *its own* throughput
// response — pairing a rate change with feedback from an earlier interval
// (as naive wall-clock aggregation would) decorrelates the two signals.

// sendIntervalRing is the maximum window of in-flight send intervals.
// 1024 intervals of 30 ms cover ~30 s of feedback delay, far beyond any
// emulated RTT; the ring force-delivers if it ever wraps at full size. The
// ring starts small (sendIntervalMin) and doubles on demand: typical flows
// have a handful of intervals in flight, so the full-size ring (~114 KB per
// flow) would be almost entirely dead weight. Both are powers of two, so
// every ring length is one and slot can mask instead of divide.
const (
	sendIntervalRing = 1024
	sendIntervalMin  = 64
)

// sendInterval aggregates the fate of packets sent during one interval.
type sendInterval struct {
	used bool
	// idx is the interval index this slot currently represents. Ring slots
	// are reused once the window wraps, so feedback carries the interval
	// index it was stamped with at send time and is matched against idx on
	// arrival: an ACK or loss for a force-delivered interval whose slot now
	// belongs to a newer interval is stale and must be ignored, not folded
	// into (and mis-counted against) the newer interval's statistics.
	idx          int64
	ended        bool
	endedAt      time.Duration
	sentBytes    int64
	sentPackets  int64
	ackedBytes   int64
	ackedPackets int64
	lostPackets  int64
	rttSum       time.Duration
	rttMin       time.Duration
	outstanding  int64
	enforcedBps  float64 // controller pacing rate while this interval was open
	firstAckAt   time.Duration
	lastAckAt    time.Duration
}

// intervalTracker drives one cc.IntervalAlgorithm with send-attributed
// statistics.
type intervalTracker struct {
	ia       cc.IntervalAlgorithm
	interval time.Duration

	idx  int64 // current (open) send interval
	next int64 // next interval to deliver
	ring []sendInterval
}

func newIntervalTracker(ia cc.IntervalAlgorithm) *intervalTracker {
	iv := ia.ControlInterval()
	if iv <= 0 {
		iv = 30 * time.Millisecond
	}
	t := &intervalTracker{ia: ia, interval: iv, ring: make([]sendInterval, sendIntervalMin)}
	t.ring[0].used = true
	return t
}

// slot maps an interval index (never negative) to its ring slot; with a
// power-of-two ring, idx & (len-1) is idx mod len.
func (t *intervalTracker) slot(idx int64) *sendInterval {
	return &t.ring[idx&int64(len(t.ring)-1)]
}

// grow doubles the ring (capped at sendIntervalRing) and rehashes the live
// slots to their positions under the new mask.
func (t *intervalTracker) grow() {
	old := t.ring
	n := 2 * len(old)
	if n > sendIntervalRing {
		n = sendIntervalRing
	}
	t.ring = make([]sendInterval, n)
	for i := range old {
		if old[i].used {
			t.ring[old[i].idx&int64(n-1)] = old[i]
		}
	}
}

// onSend records a packet leaving during the current interval and returns
// the interval index to stamp on the packet.
func (t *intervalTracker) onSend(size int) int64 {
	s := t.slot(t.idx)
	s.sentBytes += int64(size)
	s.sentPackets++
	s.outstanding++
	return t.idx
}

// onAck folds an acknowledgment into its send interval.
func (t *intervalTracker) onAck(idx int64, now time.Duration, bytes int, rtt time.Duration) {
	s := t.slot(idx)
	if !s.used || s.idx != idx {
		return // force-delivered long ago (slot may belong to a newer interval)
	}
	s.ackedBytes += int64(bytes)
	s.ackedPackets++
	if s.firstAckAt == 0 {
		s.firstAckAt = now
	}
	s.lastAckAt = now
	s.rttSum += rtt
	if s.rttMin == 0 || rtt < s.rttMin {
		s.rttMin = rtt
	}
	s.outstanding--
}

// onLoss folds a detected loss into its send interval.
func (t *intervalTracker) onLoss(idx int64) {
	s := t.slot(idx)
	if !s.used || s.idx != idx {
		return
	}
	s.lostPackets++
	s.outstanding--
}

// closeCurrent ends the open interval and opens the next; the flow calls it
// on every control tick. If the ring is about to wrap onto an undelivered
// interval, that interval is force-delivered first.
func (t *intervalTracker) closeCurrent(f *Flow, now time.Duration) {
	s := t.slot(t.idx)
	s.ended = true
	s.endedAt = now
	s.enforcedBps = f.alg.PacingRate()
	t.idx++
	for t.idx-t.next >= int64(len(t.ring)) && len(t.ring) < sendIntervalRing {
		t.grow()
	}
	if t.idx-t.next >= sendIntervalRing {
		t.deliver(f, t.next, now) // should not happen; safety valve
	}
	ns := t.slot(t.idx)
	*ns = sendInterval{used: true, idx: t.idx}
}

// tryDeliver hands every completed interval (ended, nothing outstanding) to
// the controller, in order.
func (t *intervalTracker) tryDeliver(f *Flow, now time.Duration) {
	for t.next < t.idx {
		s := t.slot(t.next)
		if !s.ended || s.outstanding > 0 {
			return
		}
		t.deliver(f, t.next, now)
	}
}

// deliver builds the IntervalStats for interval idx and invokes the
// controller.
func (t *intervalTracker) deliver(f *Flow, idx int64, now time.Duration) {
	s := t.slot(idx)
	stats := cc.IntervalStats{
		Now:             now,
		Interval:        t.interval,
		AckedBytes:      s.ackedBytes,
		AckedPackets:    s.ackedPackets,
		SentBytes:       s.sentBytes,
		SentPackets:     s.sentPackets,
		LostPackets:     s.lostPackets,
		MinRTT:          s.rttMin,
		FlowMinRTT:      f.minRTT,
		EnforcedRateBps: s.enforcedBps,
		DeliverySpan:    s.lastAckAt - s.firstAckAt,
	}
	if s.ackedPackets > 0 {
		stats.AvgRTT = s.rttSum / time.Duration(s.ackedPackets)
	}
	*s = sendInterval{}
	t.next = idx + 1
	if tap := f.net.tap; tap != nil {
		tap.IntervalDelivered(f, stats)
	}
	if f.active {
		t.ia.OnInterval(stats)
		f.trySend()
	}
}
