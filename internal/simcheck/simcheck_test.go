package simcheck

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/core"
	"repro/internal/netsim"
)

// buildDumbbell wires a single-bottleneck network with nFlows instances from
// the factory and a checker attached.
func buildDumbbell(seed uint64, rate float64, owd time.Duration, buf int, loss float64, nFlows int, mk func(i int) cc.Algorithm) (*netsim.Network, *Checker) {
	n := netsim.New(netsim.Config{Seed: seed})
	l := n.AddLink(netsim.LinkConfig{Rate: rate, Delay: owd, BufferBytes: buf, LossRate: loss})
	for i := 0; i < nFlows; i++ {
		i := i
		n.AddFlow(netsim.FlowConfig{
			Name: "f" + string(rune('0'+i)),
			Path: []*netsim.Link{l},
			Alg:  mk(i),
		})
	}
	return n, Attach(n)
}

func bdpBytes(rate float64, rtt time.Duration) int {
	return int(rate / 8 * rtt.Seconds())
}

func TestCheckerCleanOnCanonicalScenarios(t *testing.T) {
	cases := []struct {
		name string
		loss float64
		mk   func(i int) cc.Algorithm
	}{
		{"cubic", 0, func(int) cc.Algorithm { return cubic.New() }},
		{"cubic-lossy", 0.01, func(int) cc.Algorithm { return cubic.New() }},
		{"jury", 0.001, func(i int) cc.Algorithm { return core.NewDefault(uint64(i) + 1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n, ck := buildDumbbell(3, 30e6, 10*time.Millisecond, bdpBytes(30e6, 20*time.Millisecond), tc.loss, 2, tc.mk)
			n.Run(15 * time.Second)
			if vs := ck.Finish(); len(vs) > 0 {
				t.Fatalf("violations on clean scenario: %v", vs)
			}
			if ck.Events() == 0 {
				t.Fatal("checker observed no events")
			}
			if ck.Digest() == 0 {
				t.Fatal("zero digest")
			}
		})
	}
}

// brokenCC reports a negative window, which the emulator clamps for sending
// but the checker must flag as controller corruption.
type brokenCC struct{}

func (brokenCC) Name() string        { return "broken" }
func (brokenCC) Init(time.Duration)  {}
func (brokenCC) OnAck(cc.Ack)        {}
func (brokenCC) OnLoss(cc.Loss)      {}
func (brokenCC) CWND() float64       { return -5 }
func (brokenCC) PacingRate() float64 { return 1e6 }

func TestCheckerFlagsNegativeCwnd(t *testing.T) {
	n, ck := buildDumbbell(1, 10e6, 5*time.Millisecond, 100_000, 0, 1, func(int) cc.Algorithm { return brokenCC{} })
	n.Run(2 * time.Second)
	ck.Finish()
	if ck.Count() == 0 {
		t.Fatal("checker missed negative cwnd")
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "control" && strings.Contains(v.Detail, "cwnd") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no control violation recorded: %v", ck.Violations())
	}
}

func TestCheckerErrSummarizes(t *testing.T) {
	n, ck := buildDumbbell(1, 10e6, 5*time.Millisecond, 100_000, 0, 1, func(int) cc.Algorithm { return brokenCC{} })
	n.Run(time.Second)
	ck.Finish()
	err := ck.Err()
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("Err() = %v", err)
	}
}

// blast is an interval-driven sender pinned far above capacity. On a slow
// link with a huge buffer, its feedback lags by tens of seconds, forcing the
// send-interval ring to wrap and force-deliver: the regression scenario for
// the stale-feedback misattribution bug in netsim's interval tracker (an ACK
// for a force-delivered interval used to be folded into whatever newer
// interval had reused the ring slot, corrupting its accounting).
type blast struct {
	interval  time.Duration
	delivered []cc.IntervalStats
}

func (b *blast) Name() string                   { return "blast" }
func (b *blast) Init(time.Duration)             {}
func (b *blast) OnAck(cc.Ack)                   {}
func (b *blast) OnLoss(cc.Loss)                 {}
func (b *blast) CWND() float64                  { return 1 << 20 }
func (b *blast) PacingRate() float64            { return 1e6 } // 5× the link
func (b *blast) ControlInterval() time.Duration { return b.interval }
func (b *blast) OnInterval(s cc.IntervalStats)  { b.delivered = append(b.delivered, s) }

func TestIntervalRingWrapKeepsAccountingClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("40 s deep-buffer scenario")
	}
	// 200 kbps bottleneck with a 2 MB buffer: 80 s of drain time, so ACK
	// feedback lags far beyond the 1024-slot interval ring (5 ms intervals
	// wrap after 5.12 s).
	b := &blast{interval: 5 * time.Millisecond}
	n, ck := buildDumbbell(9, 2e5, 10*time.Millisecond, 2_000_000, 0, 1, func(int) cc.Algorithm { return b })
	n.Run(40 * time.Second)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("ring wrap corrupted accounting: %v", vs)
	}
	if len(b.delivered) < 1024 {
		t.Fatalf("only %d intervals delivered; ring never wrapped", len(b.delivered))
	}
	var sent, acked, lost int64
	for _, s := range b.delivered {
		sent += s.SentPackets
		acked += s.AckedPackets
		lost += s.LostPackets
	}
	if acked+lost > sent {
		t.Fatalf("interval totals do not close: sent %d acked %d lost %d", sent, acked, lost)
	}
}
