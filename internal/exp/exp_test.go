package exp

import (
	"math"
	"testing"
	"time"
)

func TestNewSchemeRegistry(t *testing.T) {
	for _, name := range Schemes {
		alg, err := NewScheme(name, 1)
		if err != nil {
			t.Fatalf("scheme %s: %v", name, err)
		}
		if alg.Name() == "" {
			t.Fatalf("scheme %s has empty name", name)
		}
	}
	if _, err := NewScheme("nonsense", 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunValidatesScenario(t *testing.T) {
	if _, err := Run(Scenario{Name: "no-horizon", Rate: 1e6, BufferBytes: 100, Flows: []FlowSpec{{Scheme: "cubic"}}}); err == nil {
		t.Fatal("horizon-less scenario accepted")
	}
	if _, err := Run(Scenario{Name: "bad-scheme", Rate: 1e6, BufferBytes: 10000, Horizon: time.Second, Flows: []FlowSpec{{Scheme: "nope"}}}); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestRunBasicScenario(t *testing.T) {
	s := Scenario{
		Name:        "basic",
		Rate:        20e6,
		OneWayDelay: 10 * time.Millisecond,
		Horizon:     20 * time.Second,
		Seed:        1,
		Flows:       []FlowSpec{{Scheme: "jury"}, {Scheme: "cubic", Start: 5 * time.Second}},
	}
	s.BufferBytes = s.BufferBDP(1.5)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows %d", len(res.Flows))
	}
	if res.Utilization < 0.5 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

func TestBufferBDP(t *testing.T) {
	s := Scenario{Rate: 100e6, OneWayDelay: 15 * time.Millisecond}
	// BDP = 100e6/8 * 0.030 = 375000 bytes.
	if got := s.BufferBDP(1); got != 375000 {
		t.Fatalf("BDP %d, want 375000", got)
	}
	if got := s.BufferBDP(2); got != 750000 {
		t.Fatalf("2 BDP %d", got)
	}
}

func TestFig4PhasesShape(t *testing.T) {
	rows, err := Fig4SignalPhases(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("rows %d", len(rows))
	}
	// Phase 1 (well below capacity): throughput tracks rate, no queue.
	first := rows[0]
	if math.Abs(first.ThroughputBps-first.SendRateBps)/first.SendRateBps > 0.1 {
		t.Fatalf("under-capacity throughput %v for rate %v", first.ThroughputBps, first.SendRateBps)
	}
	// Phase 3 (far above capacity): throughput capped at capacity, loss on.
	last := rows[len(rows)-1]
	if last.ThroughputBps > 105e6 {
		t.Fatalf("over-capacity throughput %v", last.ThroughputBps)
	}
	if last.LossRate <= 0.1 {
		t.Fatalf("no loss at 2.5x capacity: %v", last.LossRate)
	}
	// RTT grows monotonically-ish from first to the saturation region.
	if last.AvgRTT <= first.AvgRTT {
		t.Fatalf("RTT did not grow: %v -> %v", first.AvgRTT, last.AvgRTT)
	}
	// The loss-free middle region has inflated RTT but capped throughput —
	// the "queuing" phase between the two transitions.
	var sawQueuingPhase bool
	for _, r := range rows {
		if r.LossRate < 0.01 && r.AvgRTT > first.AvgRTT+5*time.Millisecond && r.ThroughputBps > 90e6 {
			sawQueuingPhase = true
		}
	}
	if !sawQueuingPhase {
		t.Fatal("no distinct queuing phase observed")
	}
}

func TestFig5MonotoneResponse(t *testing.T) {
	rows, err := Fig5OccupancyProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 7 {
		t.Fatalf("rows %d", len(rows))
	}
	// Smaller share -> larger throughput gain from the same +10% probe
	// (Fig. 5). Compare the small-share third against the large-share third.
	smallGain := 0.0
	largeGain := 0.0
	var sn, ln int
	for _, r := range rows {
		if r.Share < 0.35 {
			smallGain += r.ThrChangeRatio
			sn++
		}
		if r.Share > 0.65 {
			largeGain += r.ThrChangeRatio
			ln++
		}
	}
	if sn == 0 || ln == 0 {
		t.Fatalf("share sweep incomplete: %+v", rows)
	}
	if smallGain/float64(sn) <= largeGain/float64(ln) {
		t.Fatalf("throughput gain not decreasing in share: small %v vs large %v",
			smallGain/float64(sn), largeGain/float64(ln))
	}
}

func TestFig6SmallRun(t *testing.T) {
	rows, err := Fig6JainIndex(Fig6Options{
		Runs: 2, Stagger: 10 * time.Second, Lifetime: 30 * time.Second,
		MaxRate: 120e6, Schemes: []string{"jury", "cubic"}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanJain < 0.3 || r.MeanJain > 1 {
			t.Fatalf("%s mean Jain %v out of range", r.Scheme, r.MeanJain)
		}
		if r.P5 > r.P95 {
			t.Fatalf("%s percentiles inverted", r.Scheme)
		}
	}
}

func TestFig7PanelRuns(t *testing.T) {
	panels := Fig7Panels()
	if len(panels) != 8 {
		t.Fatalf("panels %d, want 8", len(panels))
	}
	results, err := runFig7(panels[:1], Fig7Options{Stagger: 10 * time.Second, Lifetime: 30 * time.Second, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Jain < 0.5 {
		t.Fatalf("jury 50 Mbps panel Jain %v", res.Jain)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series rows")
	}
}

func TestFig9SmallRun(t *testing.T) {
	rows, err := Fig9Friendliness(Fig9Options{
		Rate:     50e6,
		RTTs:     []time.Duration{60 * time.Millisecond},
		Lifetime: 40 * time.Second,
		Schemes:  []string{"jury", "vegas"},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 0 || math.IsInf(r.Ratio, 0) {
			t.Fatalf("%s ratio %v", r.Scheme, r.Ratio)
		}
	}
	// Vegas is famously starved by loss-based Cubic: its ratio must be
	// below Jury's.
	var jury, vegas float64
	for _, r := range rows {
		switch r.Scheme {
		case "jury":
			jury = r.Ratio
		case "vegas":
			vegas = r.Ratio
		}
	}
	if vegas >= jury {
		t.Fatalf("vegas ratio %v not below jury %v", vegas, jury)
	}
}

func TestFig12TrackingSummary(t *testing.T) {
	rows := []Fig12Row{
		{T: time.Second, Scheme: "capacity", SendRateBps: 10e6},
		{T: time.Second, Scheme: "x", SendRateBps: 8e6},
		{T: 2 * time.Second, Scheme: "capacity", SendRateBps: 10e6},
		{T: 2 * time.Second, Scheme: "x", SendRateBps: 12e6}, // capped at 1
	}
	got := Fig12Tracking(rows, "x")
	if math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("tracking %v, want 0.9", got)
	}
	if Fig12Tracking(rows, "absent") != 0 {
		t.Fatal("absent scheme should track 0")
	}
}

func TestFig14Overhead(t *testing.T) {
	rows, err := Fig14CPUOverhead(Fig14Options{
		Schemes: []string{"jury", "jury-ref", "cubic"},
		Iters:   2000,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig14Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.NsPerAck < 0 || r.CPUPercent < 0 {
			t.Fatalf("negative cost: %+v", r)
		}
	}
	// NN inference must dominate the reference policy's hand play.
	if byName["jury"].NsPerDecision <= byName["jury-ref"].NsPerDecision {
		t.Fatalf("NN decision %v not above reference %v",
			byName["jury"].NsPerDecision, byName["jury-ref"].NsPerDecision)
	}
	// Cubic's ack path must be far cheaper than an NN decision.
	if byName["cubic"].NsPerAck >= byName["jury"].NsPerDecision {
		t.Fatalf("cubic ack %v not below NN decision %v",
			byName["cubic"].NsPerAck, byName["jury"].NsPerDecision)
	}
}

func TestTableRenderers(t *testing.T) {
	if len(Tab1Rows()) != 5 {
		t.Fatal("Tab1 rows")
	}
	if len(Tab2Rows()) != 9 {
		t.Fatal("Tab2 rows")
	}
	out := FormatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if out == "" {
		t.Fatal("empty table")
	}
}

func TestMultiBottleneckFairness(t *testing.T) {
	res, err := RunMultiBottleneck(MultiBottleneckOptions{Lifetime: 90 * time.Second, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Each bottleneck is shared between the long flow and one cross flow:
	// both links should be near max-min fair (50/50).
	if res.Link1Jain < 0.85 || res.Link2Jain < 0.85 {
		t.Fatalf("parking-lot fairness broke: link1 %.3f link2 %.3f (long %.1f, cross %.1f/%.1f Mbps)",
			res.Link1Jain, res.Link2Jain, res.LongMbps, res.Cross1Mbps, res.Cross2Mbps)
	}
	// The cross flows must each get a solid share of their links.
	if res.Cross1Mbps < 20 || res.Cross2Mbps < 20 {
		t.Fatalf("cross flows starved: %.1f / %.1f Mbps", res.Cross1Mbps, res.Cross2Mbps)
	}
}
