package netsim

import (
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/cc"
	"repro/internal/traces"
)

// buildSingle creates one flow over one link and returns (net, link, flow).
func buildSingle(t *testing.T, lc LinkConfig, fc FlowConfig) (*Network, *Link, *Flow) {
	t.Helper()
	n := New(Config{Seed: 1})
	l := n.AddLink(lc)
	fc.Path = []*Link{l}
	if fc.Name == "" {
		fc.Name = "f0"
	}
	f := n.AddFlow(fc)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, l, f
}

func TestSingleFlowFillsLink(t *testing.T) {
	// 10 Mbps, 20 ms one-way. A manual sender at 20 Mbps must saturate the
	// link: utilization ~1, and the observed throughput equals capacity.
	n, l, f := buildSingle(t,
		LinkConfig{Rate: 10e6, Delay: 20 * time.Millisecond, BufferBytes: 100_000},
		FlowConfig{Alg: cc.NewManual(20e6)})
	n.Run(10 * time.Second)

	if u := l.Utilization(10 * time.Second); u < 0.95 || u > 1.01 {
		t.Fatalf("utilization %v, want ~1", u)
	}
	s := f.Stats()
	if thr := s.AvgThroughputBps; math.Abs(thr-10e6)/10e6 > 0.05 {
		t.Fatalf("avg throughput %v, want ~10e6", thr)
	}
	// Oversending into a finite buffer must drop packets.
	if s.LostPackets == 0 {
		t.Fatal("no losses despite 2x oversending into a finite buffer")
	}
}

func TestUnderloadedLinkDeliversOfferedRate(t *testing.T) {
	n, _, f := buildSingle(t,
		LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 1_000_000},
		FlowConfig{Alg: cc.NewManual(30e6)})
	n.Run(10 * time.Second)
	s := f.Stats()
	if math.Abs(s.AvgThroughputBps-30e6)/30e6 > 0.05 {
		t.Fatalf("throughput %v, want ~30e6", s.AvgThroughputBps)
	}
	if s.LostPackets != 0 {
		t.Fatalf("unexpected losses on an underloaded link: %d", s.LostPackets)
	}
	// RTT should stay at base (40 ms) plus a hair of serialization.
	if s.AvgRTT < 20*time.Millisecond || s.AvgRTT > 22*time.Millisecond {
		t.Fatalf("avg RTT %v, want ~20ms (base 2*10ms)", s.AvgRTT)
	}
}

func TestRTTReflectsQueueing(t *testing.T) {
	// Saturating sender: the queue fills, so RTT = base + buffer/capacity.
	const bufBytes = 125_000 // at 10 Mbps: 100 ms of queueing
	n, _, f := buildSingle(t,
		LinkConfig{Rate: 10e6, Delay: 15 * time.Millisecond, BufferBytes: bufBytes},
		FlowConfig{Alg: cc.NewManual(50e6)})
	n.Run(10 * time.Second)
	s := f.Stats()
	// Steady state: queue pinned at ~full -> RTT ~ 30ms + 100ms.
	series := f.Series()
	late := series[len(series)/2:]
	var sum time.Duration
	var cnt int
	for _, p := range late {
		if p.AvgRTT > 0 {
			sum += p.AvgRTT
			cnt++
		}
	}
	avgLate := sum / time.Duration(cnt)
	if avgLate < 110*time.Millisecond || avgLate > 140*time.Millisecond {
		t.Fatalf("late-half RTT %v, want ~130ms (30ms base + 100ms queue)", avgLate)
	}
	if s.MinRTT < 30*time.Millisecond {
		t.Fatalf("min RTT %v below propagation floor", s.MinRTT)
	}
}

func TestPacketConservation(t *testing.T) {
	n, l, f := buildSingle(t,
		LinkConfig{Rate: 10e6, Delay: 5 * time.Millisecond, BufferBytes: 30_000, LossRate: 0.01},
		FlowConfig{Alg: cc.NewManual(15e6)})
	n.Run(20 * time.Second)
	// Let in-flight feedback drain.
	n.Run(21 * time.Second)
	s := f.Stats()
	ls := l.Stats()
	if s.AckedPackets > s.SentPackets {
		t.Fatalf("acked %d > sent %d", s.AckedPackets, s.SentPackets)
	}
	drops := ls.OverflowDrops + ls.RandomDrops
	// Every sent packet is eventually acked or dropped (modulo packets still
	// in flight at the horizon, bounded by the window).
	missing := s.SentPackets - s.AckedPackets - drops
	if missing < 0 || missing > 2000 {
		t.Fatalf("conservation violated: sent=%d acked=%d drops=%d", s.SentPackets, s.AckedPackets, drops)
	}
	if ls.RandomDrops == 0 {
		t.Fatal("1% random loss produced no drops")
	}
}

func TestRandomLossRateCalibrated(t *testing.T) {
	n, l, f := buildSingle(t,
		LinkConfig{Rate: 50e6, Delay: 5 * time.Millisecond, BufferBytes: 10_000_000, LossRate: 0.02},
		FlowConfig{Alg: cc.NewManual(20e6)})
	n.Run(30 * time.Second)
	s := f.Stats()
	arrived := float64(l.Stats().DeliveredPackets + l.Stats().RandomDrops)
	got := float64(l.Stats().RandomDrops) / arrived
	if math.Abs(got-0.02) > 0.005 {
		t.Fatalf("random loss rate %v, want ~0.02", got)
	}
	if math.Abs(s.LossRate-0.02) > 0.01 {
		t.Fatalf("flow loss rate %v, want ~0.02", s.LossRate)
	}
}

func TestTwoFlowsShareCapacity(t *testing.T) {
	// Two identical paced flows at 20 Mbps each over a 10 Mbps bottleneck
	// drain the queue at the same per-flow rate: ~5 Mbps each.
	n := New(Config{Seed: 2})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 60_000})
	f1 := n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l}, Alg: cc.NewManual(20e6)})
	f2 := n.AddFlow(FlowConfig{Name: "b", Path: []*Link{l}, Alg: cc.NewManual(20e6)})
	n.Run(20 * time.Second)
	t1 := f1.Stats().AvgThroughputBps
	t2 := f2.Stats().AvgThroughputBps
	if math.Abs(t1-t2)/(t1+t2) > 0.05 {
		t.Fatalf("equal-rate flows got unequal shares: %v vs %v", t1, t2)
	}
	if math.Abs(t1+t2-10e6)/10e6 > 0.05 {
		t.Fatalf("combined throughput %v, want ~10e6", t1+t2)
	}
}

func TestProportionalShareUnderOverload(t *testing.T) {
	// With DropTail and Poisson-ish arrivals, flows receive roughly
	// send-rate-proportional shares (Eq. 2 of the paper).
	n := New(Config{Seed: 3})
	l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 60_000})
	f1 := n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l}, Alg: cc.NewManual(30e6)})
	f2 := n.AddFlow(FlowConfig{Name: "b", Path: []*Link{l}, Alg: cc.NewManual(10e6)})
	n.Run(20 * time.Second)
	t1 := f1.Stats().AvgThroughputBps
	t2 := f2.Stats().AvgThroughputBps
	ratio := t1 / t2
	if ratio < 2.2 || ratio > 4.0 {
		t.Fatalf("3:1 offered load produced share ratio %v", ratio)
	}
}

func TestFlowStartStop(t *testing.T) {
	n, _, f := buildSingle(t,
		LinkConfig{Rate: 10e6, Delay: 5 * time.Millisecond, BufferBytes: 100_000},
		FlowConfig{
			Start:    2 * time.Second,
			Duration: 3 * time.Second,
			Alg:      cc.NewManual(5e6),
		})
	n.Run(10 * time.Second)
	s := f.Stats()
	if s.ActiveFor != 3*time.Second {
		t.Fatalf("active for %v, want 3s", s.ActiveFor)
	}
	// ~5 Mbps for 3 s = 1.875 MB.
	wantBytes := 5e6 / 8 * 3
	if math.Abs(float64(s.AckedBytes)-wantBytes)/wantBytes > 0.05 {
		t.Fatalf("acked %d bytes, want ~%v", s.AckedBytes, wantBytes)
	}
	// No series points before start or after stop (+ one tick of slack).
	for _, p := range f.Series() {
		if p.T < 2*time.Second || p.T > 5*time.Second+300*time.Millisecond {
			t.Fatalf("series point at %v outside active window", p.T)
		}
	}
}

func TestHeterogeneousBaseRTT(t *testing.T) {
	n := New(Config{Seed: 4})
	l := n.AddLink(LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 1_000_000})
	f1 := n.AddFlow(FlowConfig{Name: "near", Path: []*Link{l}, Alg: cc.NewManual(1e6)})
	f2 := n.AddFlow(FlowConfig{Name: "far", Path: []*Link{l}, ExtraOneWay: 40 * time.Millisecond,
		Alg: cc.NewManual(1e6)})
	if f1.BaseRTT() != 20*time.Millisecond {
		t.Fatalf("near base RTT %v, want 20ms", f1.BaseRTT())
	}
	if f2.BaseRTT() != 100*time.Millisecond {
		t.Fatalf("far base RTT %v, want 100ms", f2.BaseRTT())
	}
	n.Run(5 * time.Second)
	if f1.Stats().MinRTT >= f2.Stats().MinRTT {
		t.Fatalf("min RTTs %v >= %v, want near < far", f1.Stats().MinRTT, f2.Stats().MinRTT)
	}
	if f2.Stats().MinRTT < 100*time.Millisecond {
		t.Fatalf("far flow min RTT %v below its propagation floor", f2.Stats().MinRTT)
	}
}

func TestMultiBottleneckPath(t *testing.T) {
	// Parking lot: flow A crosses both links; the second is the bottleneck.
	n := New(Config{Seed: 5})
	l1 := n.AddLink(LinkConfig{Rate: 100e6, Delay: 5 * time.Millisecond, BufferBytes: 500_000})
	l2 := n.AddLink(LinkConfig{Rate: 10e6, Delay: 5 * time.Millisecond, BufferBytes: 100_000})
	f := n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l1, l2}, Alg: cc.NewManual(50e6)})
	n.Run(10 * time.Second)
	s := f.Stats()
	if math.Abs(s.AvgThroughputBps-10e6)/10e6 > 0.05 {
		t.Fatalf("throughput %v, want bottleneck 10e6", s.AvgThroughputBps)
	}
	// Base RTT over both links: 2*(5+5) = 20 ms.
	if f.BaseRTT() != 20*time.Millisecond {
		t.Fatalf("base RTT %v, want 20ms", f.BaseRTT())
	}
}

func TestTraceDrivenLink(t *testing.T) {
	tr := traces.NewStep([]traces.Point{
		{At: 0, Rate: 10e6},
		{At: 5 * time.Second, Rate: 2e6},
	})
	n := New(Config{Seed: 6})
	l := n.AddLink(LinkConfig{Trace: tr, Delay: 5 * time.Millisecond, BufferBytes: 50_000})
	f := n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l}, Alg: cc.NewManual(50e6)})
	n.Run(10 * time.Second)
	series := f.Series()
	var early, late, earlyN, lateN float64
	for _, p := range series {
		if p.T < 5*time.Second {
			early += p.ThroughputBps
			earlyN++
		} else if p.T > 6*time.Second {
			late += p.ThroughputBps
			lateN++
		}
	}
	early /= earlyN
	late /= lateN
	if math.Abs(early-10e6)/10e6 > 0.1 {
		t.Fatalf("pre-step throughput %v, want ~10e6", early)
	}
	if math.Abs(late-2e6)/2e6 > 0.15 {
		t.Fatalf("post-step throughput %v, want ~2e6", late)
	}
}

func TestLargePacketSizeScaling(t *testing.T) {
	// MSS scaling for high-speed runs: 1 Gbps with 15000-byte packets.
	n, l, _ := buildSingle(t,
		LinkConfig{Rate: 1e9, Delay: 5 * time.Millisecond, BufferBytes: 10_000_000},
		FlowConfig{PacketSize: 15000, Alg: cc.NewManual(2e9)})
	n.Run(3 * time.Second)
	if u := l.Utilization(3 * time.Second); u < 0.95 {
		t.Fatalf("1 Gbps utilization %v with scaled MSS", u)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n, l, f := buildSingle(t,
			LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 40_000, LossRate: 0.005},
			FlowConfig{Alg: cc.NewManual(15e6)})
		n.Run(5 * time.Second)
		return f.Stats().AckedBytes, l.Stats().RandomDrops
	}
	a1, d1 := run()
	a2, d2 := run()
	if a1 != a2 || d1 != d2 {
		t.Fatalf("same-seed runs diverged: (%d,%d) vs (%d,%d)", a1, d1, a2, d2)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	n := New(Config{})
	if err := n.Validate(); err == nil {
		t.Error("empty network validated")
	}
	l := n.AddLink(LinkConfig{Rate: 0, BufferBytes: 100})
	n.AddFlow(FlowConfig{Name: "x", Path: []*Link{l}, Alg: cc.NewManual(1e6)})
	if err := n.Validate(); err == nil {
		t.Error("zero-capacity link validated")
	}
}

// TestValidateRange: Validate rejects every link and flow input a run
// cannot honour, and accepts the boundary values next to each one.
func TestValidateRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		link LinkConfig
		flow FlowConfig
		err  string // substring; "" = valid
	}{
		{"valid", LinkConfig{}, FlowConfig{}, ""},
		{"almost all lost", LinkConfig{LossRate: 0.999}, FlowConfig{}, ""},
		{"negative link delay", LinkConfig{Delay: -1}, FlowConfig{}, "negative delay"},
		{"loss 1", LinkConfig{LossRate: 1}, FlowConfig{}, "outside [0, 1)"},
		{"loss above 1", LinkConfig{LossRate: 1.5}, FlowConfig{}, "outside [0, 1)"},
		{"negative loss", LinkConfig{LossRate: -0.2}, FlowConfig{}, "outside [0, 1)"},
		{"NaN loss", LinkConfig{LossRate: math.NaN()}, FlowConfig{}, "outside [0, 1)"},
		{"negative start", LinkConfig{}, FlowConfig{Start: -5 * time.Second}, "negative time"},
		{"negative duration", LinkConfig{}, FlowConfig{Duration: -time.Second}, "negative duration"},
		{"negative extra delay", LinkConfig{}, FlowConfig{ExtraOneWay: -time.Millisecond}, "negative extra delay"},
	} {
		n := New(Config{})
		lc := tc.link
		lc.Rate, lc.BufferBytes = 10e6, 50_000
		if lc.Delay == 0 {
			lc.Delay = 10 * time.Millisecond
		}
		fc := tc.flow
		fc.Name, fc.Path, fc.Alg = "f", []*Link{n.AddLink(lc)}, cc.NewManual(1e6)
		n.AddFlow(fc)
		err := n.Validate()
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.err)
		}
	}
}

func TestAddFlowPanicsOnMissingPath(t *testing.T) {
	n := New(Config{})
	defer func() {
		if recover() == nil {
			t.Error("empty path did not panic")
		}
	}()
	n.AddFlow(FlowConfig{Alg: cc.NewManual(1)})
}

func TestQueueHighWaterMark(t *testing.T) {
	n, l, _ := buildSingle(t,
		LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 50_000},
		FlowConfig{Alg: cc.NewManual(30e6)})
	n.Run(5 * time.Second)
	hw := l.Stats().MaxQueueBytes
	if hw < 45_000 || hw > 50_000 {
		t.Fatalf("queue high-water %d, want near buffer size 50000", hw)
	}
}

func TestSeriesSendRateTracksManualRate(t *testing.T) {
	n, _, f := buildSingle(t,
		LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 1_000_000},
		FlowConfig{Alg: cc.NewManual(8e6)})
	n.Run(5 * time.Second)
	pts := f.Series()
	var sum float64
	for _, p := range pts[2:] {
		// Individual 200 ms windows carry Poisson pacing noise; each must
		// still be in the right ballpark.
		if math.Abs(p.SendRateBps-8e6)/8e6 > 0.5 {
			t.Fatalf("send rate %v at %v, want ~8e6", p.SendRateBps, p.T)
		}
		sum += p.SendRateBps
	}
	mean := sum / float64(len(pts)-2)
	if math.Abs(mean-8e6)/8e6 > 0.05 {
		t.Fatalf("mean send rate %v, want ~8e6", mean)
	}
}

// TestSteppedRunSeriesGrowsGeometrically steps a dumbbell to 20 s in 30 ms
// Run calls, as the training environment does, and holds it to one Run to
// the same horizon: every flow's series is the same, sample for sample, and
// each flow's backing array was reallocated O(log samples) times, not at
// every record tick.
func TestSteppedRunSeriesGrowsGeometrically(t *testing.T) {
	const horizon = 20 * time.Second
	build := func() *Network {
		n := New(Config{Seed: 9})
		l := n.AddLink(LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 60_000, LossRate: 0.002})
		n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l}, Alg: cc.NewManual(8e6)})
		n.AddFlow(FlowConfig{Name: "b", Path: []*Link{l}, ExtraOneWay: 15 * time.Millisecond,
			Alg: cc.NewManual(6e6)})
		n.AddFlow(FlowConfig{Name: "c", Path: []*Link{l}, Start: 3 * time.Second, Duration: 9 * time.Second,
			Alg: cc.NewManual(4e6)})
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	whole := build()
	whole.Run(horizon)

	stepped := build()
	flows := stepped.Flows()
	backing := make([]*SeriesPoint, len(flows))
	reallocs := make([]int, len(flows))
	for h := 30 * time.Millisecond; ; h += 30 * time.Millisecond {
		h = min(h, horizon)
		stepped.Run(h)
		for i, f := range flows {
			if p := unsafe.SliceData(f.series); p != backing[i] {
				backing[i] = p
				reallocs[i]++
			}
		}
		if h == horizon {
			break
		}
	}

	for i, f := range flows {
		want, got := whole.Flows()[i].Series(), f.Series()
		if len(got) != len(want) {
			t.Fatalf("flow %s: %d samples stepped, %d in one run", f.Name(), len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("flow %s sample %d: stepped %+v, one run %+v", f.Name(), j, got[j], want[j])
			}
		}
		if bound := bits.Len(uint(len(got))) + 2; reallocs[i] > bound {
			t.Errorf("flow %s: series reallocated %d times over %d samples, want at most %d",
				f.Name(), reallocs[i], len(got), bound)
		}
	}
}

func TestJitterInflatesRTTAndPreservesConservation(t *testing.T) {
	n, l, f := buildSingle(t,
		LinkConfig{Rate: 20e6, Delay: 10 * time.Millisecond, BufferBytes: 200_000, JitterStd: 3 * time.Millisecond},
		FlowConfig{Alg: cc.NewManual(10e6)})
	n.Run(10 * time.Second)
	s := f.Stats()
	// Mean extra one-way delay of |N(0,3ms)| is ~2.4ms.
	if s.AvgRTT < 21*time.Millisecond || s.AvgRTT > 28*time.Millisecond {
		t.Fatalf("jittered avg RTT %v, want ~22-24ms", s.AvgRTT)
	}
	drops := l.Stats().OverflowDrops + l.Stats().RandomDrops
	if s.AckedPackets+drops > s.SentPackets {
		t.Fatalf("conservation violated under jitter")
	}
	if s.LostPackets != 0 {
		t.Fatalf("jitter produced loss: %d", s.LostPackets)
	}
}

func TestZeroJitterIsExactPropagation(t *testing.T) {
	n, _, f := buildSingle(t,
		LinkConfig{Rate: 100e6, Delay: 10 * time.Millisecond, BufferBytes: 500_000},
		FlowConfig{Alg: cc.NewManual(5e6)})
	n.Run(3 * time.Second)
	if f.Stats().MinRTT < 20*time.Millisecond || f.Stats().MinRTT > 21*time.Millisecond {
		t.Fatalf("min RTT %v, want ~20ms + serialization", f.Stats().MinRTT)
	}
}

func TestRandomScenarioInvariants(t *testing.T) {
	// Fuzz the emulator across random scenarios; physics invariants must
	// hold in all of them: conservation, utilization ≤ 1, RTT ≥ propagation.
	if err := quick.Check(func(seed uint64, rateRaw, lossRaw, bufRaw, sendRaw uint16, flowsRaw uint8) bool {
		rate := 1e6 + float64(rateRaw%200)*1e6 // 1-200 Mbps
		loss := float64(lossRaw%30) / 1000     // 0-2.9%
		buf := 10_000 + int(bufRaw)*20         // 10KB-1.3MB
		nFlows := int(flowsRaw%4) + 1          // 1-4 flows
		n := New(Config{Seed: seed})
		l := n.AddLink(LinkConfig{Rate: rate, Delay: 10 * time.Millisecond, BufferBytes: buf, LossRate: loss})
		flows := make([]*Flow, nFlows)
		for i := range flows {
			send := 0.2*rate + float64(sendRaw%100)/100*rate
			flows[i] = n.AddFlow(FlowConfig{
				Name: "f", Path: []*Link{l},
				Alg: cc.NewManual(send),
			})
		}
		n.Run(3 * time.Second)
		if u := l.Utilization(3 * time.Second); u > 1.02 {
			t.Logf("utilization %v > 1", u)
			return false
		}
		drops := l.Stats().OverflowDrops + l.Stats().RandomDrops
		var sent, acked int64
		for _, f := range flows {
			s := f.Stats()
			sent += s.SentPackets
			acked += s.AckedPackets
			if s.AckedPackets > 0 && s.MinRTT < 20*time.Millisecond {
				t.Logf("min RTT %v below propagation", s.MinRTT)
				return false
			}
		}
		// inflight at the horizon is bounded by the windows (Manual: 1<<20
		// each, but practically by BDP+buffer); allow generous slack.
		missing := sent - acked - drops
		if missing < 0 {
			t.Logf("acked+drops exceed sent: %d", missing)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// fixedWindow is an unpaced sender that keeps w packets in flight.
type fixedWindow struct{ w float64 }

func (fixedWindow) Name() string        { return "fixed-window" }
func (fixedWindow) Init(time.Duration)  {}
func (fixedWindow) OnAck(cc.Ack)        {}
func (fixedWindow) OnLoss(cc.Loss)      {}
func (a fixedWindow) CWND() float64     { return a.w }
func (fixedWindow) PacingRate() float64 { return 0 }

// fifoRTTModel predicts each packet's RTT over one loss-free FIFO link from
// its send time alone: it waits for the link (queueing), serializes, and
// propagates there and back. PacketAcked checks every sample in send order.
type fifoRTTModel struct {
	NopTap
	t         *testing.T
	tx, prop  time.Duration
	busyUntil time.Duration
	want      []time.Duration
	acked     int64
	queued    int64 // samples that waited behind another packet
}

func (m *fifoRTTModel) PacketSent(f *Flow, _ int) {
	sent := f.Now()
	start := max(sent, m.busyUntil)
	m.busyUntil = start + m.tx
	if start > sent {
		m.queued++
	}
	m.want = append(m.want, start-sent+m.tx+2*m.prop)
}

func (m *fifoRTTModel) PacketAcked(_ *Flow, _ int, rtt time.Duration) {
	if want := m.want[m.acked]; rtt != want {
		m.t.Errorf("packet %d RTT %v, want queueing+serialization+2·prop = %v", m.acked, rtt, want)
	}
	m.acked++
}

// A packet's serialization is not an event and its delivery is not one
// either: the link books the departure when the packet arrives and queues
// the ACK for one return leg after the packet reaches the receiver. The
// per-packet work is the ACK event alone, and every RTT still matches an
// independent FIFO model of queueing, serialization and propagation.
func TestLastHopSchedulesAck(t *testing.T) {
	const (
		rate     = 12e6
		prop     = 5 * time.Millisecond
		duration = time.Second
	)
	n, _, f := buildSingle(t,
		LinkConfig{Rate: rate, Delay: prop, BufferBytes: 100_000},
		FlowConfig{Alg: fixedWindow{w: 20}, Duration: duration}) // window > BDP: a standing queue
	m := &fifoRTTModel{t: t, tx: time.Duration(float64(DefaultPacketSize) * 8 / rate * float64(time.Second)), prop: prop}
	n.SetTap(m)
	executed := n.Run(3 * time.Second) // every packet is acked long before the horizon

	sent := f.Stats().SentPackets
	if sent == 0 || m.acked != sent {
		t.Fatalf("acked %d of %d packets", m.acked, sent)
	}
	if m.queued == 0 {
		t.Fatal("no packet queued: the RTT check never saw queueing delay")
	}
	// One ACK per packet (the sender sends from inside its ACK events), then
	// start and stop, plus one record tick per interval up to the stop (the
	// last one finds the flow stopped and does not re-arm).
	ticks := int64(duration / n.RecordInterval())
	if want := sent + 2 + ticks; int64(executed) != want {
		t.Fatalf("ran %d events for %d packets, want %d: one ACK per packet plus start, stop and %d record ticks",
			executed, sent, want, ticks)
	}
}
