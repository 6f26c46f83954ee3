// Package bbr implements a faithful simplification of BBRv1 (Cardwell et
// al., 2016): model-based congestion control that paces at the estimated
// bottleneck bandwidth and bounds inflight to a gain times the
// bandwidth-delay product. The state machine covers STARTUP, DRAIN,
// PROBE_BW with the eight-phase gain cycle, and PROBE_RTT.
package bbr

import (
	"time"

	"repro/internal/cc"
)

// state is the BBR state machine phase.
type state int

const (
	stateStartup state = iota
	stateDrain
	stateProbeBW
	stateProbeRTT
)

const (
	highGain      = 2.885 // 2/ln(2)
	drainGain     = 1 / highGain
	cwndGain      = 2.0
	minCwnd       = 4
	probeRTTEvery = 10 * time.Second
	probeRTTHold  = 200 * time.Millisecond
)

// pacingGainCycle is the PROBE_BW gain sequence: probe up, drain the probe,
// then cruise.
var pacingGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// rateSample is one point of the delivery-rate history.
type rateSample struct {
	at        time.Duration
	delivered int64
}

// BBR is a BBRv1 controller. Construct with New.
type BBR struct {
	st         state
	pacingGain float64

	btlBw  *cc.WindowedMax    // bits/second
	minRTT *cc.WindowedMinRTT // 10 s window

	delivered int64
	history   []rateSample // delivery-rate history, live from histHead on
	histHead  int

	mss        int
	srtt       time.Duration
	roundStart time.Duration
	fullBw     float64
	fullBwCnt  int

	cycleIdx     int
	cycleStart   time.Duration
	probeRTTAt   time.Duration // when PROBE_RTT last completed
	probeRTTDone time.Duration // when the current PROBE_RTT hold ends

	cwnd float64
}

// New returns a BBR controller in STARTUP.
func New() *BBR {
	return &BBR{
		st:         stateStartup,
		pacingGain: highGain,
		btlBw:      cc.NewWindowedMax(10 * time.Second),
		minRTT:     cc.NewWindowedMinRTT(10 * time.Second),
		mss:        1500,
		cwnd:       10,
	}
}

// Name implements cc.Algorithm.
func (b *BBR) Name() string { return "bbr" }

// Init implements cc.Algorithm.
func (b *BBR) Init(now time.Duration) {
	b.roundStart = now
	b.probeRTTAt = now
}

// OnAck implements cc.Algorithm.
func (b *BBR) OnAck(a cc.Ack) {
	b.mss = a.Bytes
	b.minRTT.Update(a.Now, a.RTT)
	if b.srtt == 0 {
		b.srtt = a.RTT
	} else {
		b.srtt += (a.RTT - b.srtt) / 8
	}

	// Delivery-rate sample over a trailing RTT of history. Samples leave the
	// front by advancing histHead; a full array whose front half has left
	// slides its live part down instead of growing.
	b.delivered += int64(a.Bytes)
	if len(b.history) == cap(b.history) && 2*b.histHead >= len(b.history) {
		b.history, b.histHead = b.history[:copy(b.history, b.history[b.histHead:])], 0
	}
	b.history = append(b.history, rateSample{a.Now, b.delivered})
	window := b.srtt
	if window < time.Millisecond {
		window = time.Millisecond
	}
	for len(b.history)-b.histHead > 2 && a.Now-b.history[b.histHead].at > window {
		b.histHead++
	}
	if oldest := b.history[b.histHead]; a.Now > oldest.at {
		rate := float64(b.delivered-oldest.delivered) * 8 / (a.Now - oldest.at).Seconds()
		b.btlBw.SetWindow(10 * window)
		b.btlBw.Update(a.Now, rate)
	}

	b.advanceStateMachine(a.Now)
	b.updateCwnd()
}

func (b *BBR) advanceStateMachine(now time.Duration) {
	rtt := b.minRTT.Value()
	if rtt == 0 {
		return
	}
	// Round boundaries are RTT-timed.
	newRound := now-b.roundStart >= rtt
	if newRound {
		b.roundStart = now
	}

	switch b.st {
	case stateStartup:
		if newRound {
			bw := b.btlBw.Value()
			if bw > b.fullBw*1.25 {
				b.fullBw = bw
				b.fullBwCnt = 0
			} else {
				b.fullBwCnt++
			}
			if b.fullBwCnt >= 3 {
				b.st = stateDrain
				b.pacingGain = drainGain
			}
		}
	case stateDrain:
		// Exit once the queue built in startup has drained: RTT back near
		// the floor, or a safety bound of rounds.
		if b.srtt <= rtt+rtt/5 || (newRound && b.fullBwCnt > 8) {
			b.enterProbeBW(now)
		} else if newRound {
			b.fullBwCnt++
		}
	case stateProbeBW:
		if now-b.cycleStart >= rtt {
			b.cycleStart = now
			b.cycleIdx = (b.cycleIdx + 1) % len(pacingGainCycle)
			b.pacingGain = pacingGainCycle[b.cycleIdx]
		}
		if now-b.probeRTTAt > probeRTTEvery {
			b.st = stateProbeRTT
			b.probeRTTDone = now + probeRTTHold
			b.pacingGain = 1
		}
	case stateProbeRTT:
		if now >= b.probeRTTDone {
			b.probeRTTAt = now
			b.enterProbeBW(now)
		}
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.st = stateProbeBW
	b.cycleStart = now
	b.cycleIdx = 2 // start in a cruise phase
	b.pacingGain = pacingGainCycle[b.cycleIdx]
}

func (b *BBR) updateCwnd() {
	if b.st == stateProbeRTT {
		b.cwnd = minCwnd
		return
	}
	bw := b.btlBw.Value()
	rtt := b.minRTT.Value()
	if bw == 0 || rtt == 0 {
		return
	}
	gain := cwndGain
	if b.st == stateStartup {
		gain = highGain
	}
	bdpPackets := bw * rtt.Seconds() / 8 / float64(b.mss)
	b.cwnd = gain * bdpPackets
	if b.cwnd < minCwnd {
		b.cwnd = minCwnd
	}
}

// OnLoss implements cc.Algorithm. BBRv1 deliberately ignores packet loss as
// a congestion signal (its robustness on lossy links in Fig. 10(c) and its
// slow fairness convergence in Fig. 7(g) both stem from the bandwidth-model
// control).
func (b *BBR) OnLoss(cc.Loss) {}

// CWND implements cc.Algorithm.
func (b *BBR) CWND() float64 { return b.cwnd }

// PacingRate implements cc.Algorithm.
func (b *BBR) PacingRate() float64 {
	bw := b.btlBw.Value()
	if bw == 0 {
		return 0 // unpaced until the first delivery-rate sample
	}
	return b.pacingGain * bw
}

// State exposes the current phase for tests.
func (b *BBR) State() int { return int(b.st) }
