package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.Zeta = 0 },
		func(c *Config) { c.Zeta = 1.2 },
		func(c *Config) { c.HistoryLen = 0 },
		func(c *Config) { c.ExploreLow, c.ExploreHigh = 0.1, -0.1 },
		func(c *Config) { c.OccupancyWindow = 0 },
		func(c *Config) { c.OccupancyMin, c.OccupancyMax = 0.5, 0.2 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestStateDim(t *testing.T) {
	c := DefaultConfig()
	if c.StateDim() != 2*c.HistoryLen {
		t.Fatalf("state dim %d", c.StateDim())
	}
}

// stats builds one send-attributed interval record.
func stats(acked int64, avgRTT time.Duration, lost int64, sent int64, span time.Duration) cc.IntervalStats {
	return cc.IntervalStats{
		Now:          time.Second,
		Interval:     30 * time.Millisecond,
		AckedBytes:   acked * 1500,
		AckedPackets: acked,
		SentBytes:    sent * 1500,
		SentPackets:  sent,
		LostPackets:  lost,
		AvgRTT:       avgRTT,
		MinRTT:       avgRTT,
		FlowMinRTT:   30 * time.Millisecond,
		DeliverySpan: span,
	}
}

func TestTransformerSignals(t *testing.T) {
	tr := NewTransformer(DefaultConfig())
	// First interval: no previous baseline, invalid.
	sig := tr.Update(stats(100, 30*time.Millisecond, 0, 100, 30*time.Millisecond))
	if sig.Valid {
		t.Fatal("first interval produced a valid signal")
	}
	// Second interval: RTT +3ms (0.1 of the 30ms interval), rate 1.2x.
	sig = tr.Update(stats(110, 33*time.Millisecond, 0, 120, 30*time.Millisecond))
	if !sig.Valid {
		t.Fatal("second interval invalid")
	}
	if math.Abs(sig.DRTTNorm-0.1) > 1e-9 {
		t.Fatalf("DRTTNorm %v, want 0.1", sig.DRTTNorm)
	}
	if math.Abs(sig.RateChange-1.2) > 1e-9 {
		t.Fatalf("RateChange %v, want 1.2", sig.RateChange)
	}
	if sig.LossRatio != 0 {
		t.Fatalf("LossRatio %v, want 0 (no loss change)", sig.LossRatio)
	}
}

func TestTransformerLossRatioSign(t *testing.T) {
	tr := NewTransformer(DefaultConfig())
	tr.Update(stats(100, 30*time.Millisecond, 0, 100, 30*time.Millisecond))
	// 10% loss appears: (1-0.1)/(1-0) - 1 = -0.1.
	sig := tr.Update(stats(90, 30*time.Millisecond, 10, 100, 30*time.Millisecond))
	if math.Abs(sig.LossRatio+0.1) > 1e-9 {
		t.Fatalf("LossRatio %v, want -0.1", sig.LossRatio)
	}
	// Loss disappears: (1-0)/(1-0.1) - 1 = +0.111.
	sig = tr.Update(stats(100, 30*time.Millisecond, 0, 100, 30*time.Millisecond))
	if sig.LossRatio < 0.1 || sig.LossRatio > 0.12 {
		t.Fatalf("recovery LossRatio %v, want ~+0.111", sig.LossRatio)
	}
}

func TestTransformerHistoryStacking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryLen = 3
	tr := NewTransformer(cfg)
	rtts := []time.Duration{30, 33, 30, 36, 30}
	for _, r := range rtts {
		tr.Update(stats(100, r*time.Millisecond, 0, 100, 30*time.Millisecond))
	}
	st := tr.State()
	if len(st) != 6 {
		t.Fatalf("state len %d, want 6", len(st))
	}
	// Last 3 valid diffs: 33→30 (-0.1), 30→36 (+0.2), 36→30 (-0.2).
	want := []float64{-0.1, 0.2, -0.2}
	for i, w := range want {
		if math.Abs(st[2*i]-w) > 1e-9 {
			t.Fatalf("stacked ΔRTT[%d] = %v, want %v (state %v)", i, st[2*i], w, st)
		}
	}
	if !tr.Ready() {
		t.Fatal("transformer not ready after 5 intervals")
	}
}

func TestTransformerStateIsClamped(t *testing.T) {
	tr := NewTransformer(DefaultConfig())
	tr.Update(stats(100, 30*time.Millisecond, 0, 100, 30*time.Millisecond))
	tr.Update(stats(100, 300*time.Millisecond, 0, 100, 30*time.Millisecond)) // ΔRTT = 9.0
	st := tr.State()
	last := st[len(st)-2]
	if last != 1 {
		t.Fatalf("clamped ΔRTT %v, want 1", last)
	}
}

func TestEstimateOccupancyInvertsEq4(t *testing.T) {
	// Forward Eq. 4: thrRatio = a / (1 + (a-1)·ratio); Eq. 5 must invert it.
	if err := quick.Check(func(rRaw, aRaw float64) bool {
		ratio := math.Mod(math.Abs(rRaw), 1.0)
		a := 0.8 + math.Mod(math.Abs(aRaw), 0.4) // a in [0.8, 1.2]
		if math.Abs(a-1) < 0.01 {
			return true // excluded by the probe epsilon
		}
		thrRatio := a / (1 + (a-1)*ratio)
		got, ok := EstimateOccupancy(a, thrRatio)
		return ok && math.Abs(got-ratio) < 1e-9
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEstimateOccupancyRejectsUninformative(t *testing.T) {
	if _, ok := EstimateOccupancy(1.0, 1.0); ok {
		t.Fatal("a=1 accepted (0/0)")
	}
	if _, ok := EstimateOccupancy(1.002, 1.001); ok {
		t.Fatal("sub-epsilon probe accepted")
	}
	if _, ok := EstimateOccupancy(1.2, 0); ok {
		t.Fatal("zero throughput ratio accepted")
	}
}

func mkSignals(rateChange, thrChange float64) Signals {
	return Signals{Valid: true, RateChange: rateChange, ThrChange: thrChange}
}

func TestOccupancyEstimatorRegimes(t *testing.T) {
	cfg := DefaultConfig()

	// Underutilized: throughput tracks rate exactly → ratio ~0.
	e := NewOccupancyEstimator(cfg)
	for i := 0; i < 40; i++ {
		ch := 1 + 0.05*math.Sin(float64(i))
		e.Update(mkSignals(ch, ch))
	}
	if v := e.Value(); v > 0.1 {
		t.Fatalf("underutilized estimate %v, want ~0", v)
	}

	// Saturated sole flow: throughput ignores rate → ratio ~1.
	e = NewOccupancyEstimator(cfg)
	for i := 0; i < 40; i++ {
		ch := 1 + 0.05*math.Sin(float64(i))
		e.Update(mkSignals(ch, 1.0))
	}
	if v := e.Value(); v < 0.9 {
		t.Fatalf("saturated estimate %v, want ~1", v)
	}

	// Proportional sharing at share r: slope 1-r exactly (Eq. 4 linearized).
	for _, r := range []float64{0.25, 0.5, 0.75} {
		e = NewOccupancyEstimator(cfg)
		for i := 0; i < 40; i++ {
			a := 1 + 0.05*math.Sin(float64(i))
			th := a / (1 + (a-1)*r) // exact Eq. 4
			e.Update(mkSignals(a, th))
		}
		if v := e.Value(); math.Abs(v-r) > 0.05 {
			t.Fatalf("share %v estimated as %v", r, v)
		}
	}
}

func TestOccupancyEstimatorRobustToNoise(t *testing.T) {
	cfg := DefaultConfig()
	e := NewOccupancyEstimator(cfg)
	// Share 0.5 with 10% multiplicative noise on the throughput response.
	phase := 0.0
	noise := func() float64 { phase += 1.37; return 1 + 0.1*math.Sin(phase*7.3) }
	var last float64
	for i := 0; i < 200; i++ {
		a := 1 + 0.05*math.Sin(float64(i))
		th := a / (1 + (a-1)*0.5) * noise()
		last = e.Update(mkSignals(a, th))
	}
	if math.Abs(last-0.5) > 0.2 {
		t.Fatalf("noisy share 0.5 estimated as %v", last)
	}
}

func TestOccupancyEstimatorIgnoresOutliers(t *testing.T) {
	cfg := DefaultConfig()
	e := NewOccupancyEstimator(cfg)
	for i := 0; i < 20; i++ {
		e.Update(mkSignals(1.05, 1.05))
	}
	v0 := e.Value()
	e.Update(mkSignals(100, 0.001)) // pathological swing
	if e.Value() != v0 {
		t.Fatalf("outlier moved the estimate %v -> %v", v0, e.Value())
	}
	e.Update(Signals{Valid: false})
	if e.Value() != v0 {
		t.Fatal("invalid signal moved the estimate")
	}
}

func TestOccupancyEstimatorSeedsAggressive(t *testing.T) {
	cfg := DefaultConfig()
	e := NewOccupancyEstimator(cfg)
	if e.Value() != cfg.OccupancyMin {
		t.Fatalf("fresh estimator reports %v, want the aggressive floor %v", e.Value(), cfg.OccupancyMin)
	}
	if e.Samples() != 0 {
		t.Fatal("fresh estimator claims samples")
	}
}

func TestPostProcessEq6(t *testing.T) {
	// At half occupancy the action is exactly μ.
	if got := PostProcess(0.3, 0.5, 0.5); got != 0.3 {
		t.Fatalf("PostProcess(μ=0.3, r=0.5) = %v", got)
	}
	// Small flow gets μ+δ, large flow μ−δ.
	if got := PostProcess(0.1, 0.5, 0); got != 0.6 {
		t.Fatalf("small-flow action %v, want 0.6", got)
	}
	if got := PostProcess(0.1, 0.5, 1); math.Abs(got+0.4) > 1e-12 {
		t.Fatalf("large-flow action %v, want -0.4", got)
	}
	// Clamped to [-1, 1].
	if got := PostProcess(0.9, 1, 0); got != 1 {
		t.Fatalf("unclamped action %v", got)
	}
}

func TestPostProcessMonotoneInOccupancy(t *testing.T) {
	if err := quick.Check(func(muR, dR, r1R, r2R float64) bool {
		mu := math.Mod(muR, 1)
		d := math.Abs(math.Mod(dR, 1))
		r1 := math.Abs(math.Mod(r1R, 1))
		r2 := math.Abs(math.Mod(r2R, 1))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		// Higher occupancy must never produce a larger action.
		return PostProcess(mu, d, r2) <= PostProcess(mu, d, r1)+1e-12
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The occupancy-weighted mean action is Eq. 6's aggregate drift: with
// occupancies r_i summing to 1 and no clamp firing, Σ r_i·a_i = μ + δ(1 −
// 2Σr_i²). At fair share that is μ + δ(1 − 2/n), so the aggregate is
// neutral (exactly μ) at n = 2 and leans toward +δ as n grows.
func TestPostProcessDrift(t *testing.T) {
	if err := quick.Check(func(muR, dR float64, nR uint8, weights [16]uint16) bool {
		mu := math.Mod(muR, 0.45) // |μ| + δ < 1: no action reaches the clamp
		delta := math.Abs(math.Mod(dR, 0.45))
		n := 1 + int(nR)%len(weights)
		var total float64
		for _, w := range weights[:n] {
			total += float64(w) + 1
		}
		var drift, sumSq float64
		for _, w := range weights[:n] {
			r := (float64(w) + 1) / total
			drift += r * PostProcess(mu, delta, r)
			sumSq += r * r
		}
		if want := mu + delta*(1-2*sumSq); math.Abs(drift-want) > 1e-12 {
			t.Logf("n=%d μ=%v δ=%v: Σ r·a = %v, want %v", n, mu, delta, drift, want)
			return false
		}
		var fair float64
		for i := 0; i < n; i++ {
			fair += PostProcess(mu, delta, 1/float64(n)) / float64(n)
		}
		if want := mu + delta*(1-2/float64(n)); math.Abs(fair-want) > 1e-12 {
			t.Logf("n=%d μ=%v δ=%v: fair-share drift %v, want %v", n, mu, delta, fair, want)
			return false
		}
		if n == 2 && fair != mu {
			t.Logf("μ=%v δ=%v: two fair flows drift to %v, want exactly μ", mu, delta, fair)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRewardShape(t *testing.T) {
	cfg := DefaultConfig()
	base := 30 * time.Millisecond
	// Increasing occupancy increases reward (no penalties active).
	r1 := Reward(cfg, 0.2, base, base, 0, 0)
	r2 := Reward(cfg, 0.8, base, base, 0, 0)
	if r2 <= r1 {
		t.Fatalf("reward not increasing in occupancy: %v vs %v", r1, r2)
	}
	// Queueing decreases reward.
	rq := Reward(cfg, 0.8, base+20*time.Millisecond, base, 0, 0)
	if rq >= r2 {
		t.Fatalf("reward not penalizing queueing: %v vs %v", rq, r2)
	}
	// Loss decreases reward.
	rl := Reward(cfg, 0.8, base, base, 0.05, 0)
	if rl >= r2 {
		t.Fatalf("reward not penalizing loss: %v vs %v", rl, r2)
	}
}

func TestRewardConcaveInOccupancy(t *testing.T) {
	// The concave throughput term gives small flows more reward per unit of
	// growth — the incentive structure of §3.3.
	cfg := DefaultConfig()
	base := 30 * time.Millisecond
	gainSmall := Reward(cfg, 0.2, base, base, 0, 0) - Reward(cfg, 0.1, base, base, 0, 0)
	gainLarge := Reward(cfg, 0.9, base, base, 0, 0) - Reward(cfg, 0.8, base, base, 0, 0)
	if gainSmall <= gainLarge {
		t.Fatalf("reward not concave: small-gain %v vs large-gain %v", gainSmall, gainLarge)
	}
}

func TestRewardClampsOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	base := 30 * time.Millisecond
	if r := Reward(cfg, -0.5, base, base, 0, 0); math.IsNaN(r) {
		t.Fatal("negative occupancy produced NaN")
	}
	if Reward(cfg, 1.5, base, base, 0, 0) != Reward(cfg, 1, base, base, 0, 0) {
		t.Fatal("occupancy not clamped at 1")
	}
}

func TestApplyActionEq7Inverse(t *testing.T) {
	// Eq. 7 is constructed so +a then -a returns the window exactly.
	if err := quick.Check(func(aRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 1)
		j := NewDefault(1)
		j.cwnd = 100
		j.applyAction(a)
		j.applyAction(-a)
		return math.Abs(j.cwnd-100) < 1e-9
	}, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestApplyActionBoundsAndFloor(t *testing.T) {
	j := NewDefault(1)
	j.cwnd = 2
	for i := 0; i < 100; i++ {
		j.applyAction(-1)
	}
	if j.cwnd < minCwnd {
		t.Fatalf("cwnd %v below floor", j.cwnd)
	}
	w := j.cwnd
	j.applyAction(1)
	if math.Abs(j.cwnd-w*(1+j.cfg.Alpha)) > 1e-9 {
		t.Fatalf("max action grew %v -> %v, want x%v", w, j.cwnd, 1+j.cfg.Alpha)
	}
}

func TestExploreActionStatistics(t *testing.T) {
	j := NewDefault(7)
	var swapped, ups int
	const n = 20000
	for i := 0; i < n; i++ {
		a := j.exploreAction(0.0)
		if a == 1 || a == -1 {
			swapped++
			if a == 1 {
				ups++
			}
		} else if a != 0 {
			t.Fatalf("explore produced %v", a)
		}
	}
	frac := float64(swapped) / n
	if math.Abs(frac-j.cfg.ExploreProb) > 0.02 {
		t.Fatalf("explore rate %v, want ~%v", frac, j.cfg.ExploreProb)
	}
	if up := float64(ups) / float64(swapped); math.Abs(up-0.5) > 0.03 {
		t.Fatalf("explore direction bias: %v up", up)
	}
	// Outside the band the action passes through untouched.
	if j.exploreAction(0.5) != 0.5 || j.exploreAction(-0.5) != -0.5 {
		t.Fatal("explore touched an action outside the band")
	}
}

func TestReferencePolicyResponses(t *testing.T) {
	p := NewReferencePolicy()
	dim := DefaultConfig().StateDim()
	flat := make([]float64, dim)
	mu, delta := p.Decide(flat)
	if mu != p.ProbeGain || delta != p.Delta {
		t.Fatalf("flat-signal decision (%v, %v)", mu, delta)
	}

	// Sustained queue growth drives μ negative.
	grow := make([]float64, dim)
	for i := 0; i < dim; i += 2 {
		grow[i] = 0.2
	}
	mu, _ = p.Decide(grow)
	if mu >= 0 {
		t.Fatalf("μ %v under queue growth, want negative", mu)
	}

	// Draining queue: hold, don't re-probe.
	drain := make([]float64, dim)
	for i := 0; i < dim; i += 2 {
		drain[i] = -0.2
	}
	mu, _ = p.Decide(drain)
	if mu != 0 {
		t.Fatalf("μ %v while draining, want 0", mu)
	}

	// An unrecovered loss drop anywhere in the window suppresses μ.
	lossy := make([]float64, dim)
	lossy[1] = -0.1 // oldest slot
	mu, _ = p.Decide(lossy)
	if mu >= 0 {
		t.Fatalf("μ %v with a net loss drop, want negative", mu)
	}
	// Steady random loss produces symmetric swings whose net change is
	// zero: the policy must keep probing (Fig. 10c loss resilience).
	steady := make([]float64, dim)
	for i := 1; i < dim; i += 4 {
		steady[i] = -0.02
		if i+2 < dim {
			steady[i+2] = 0.02
		}
	}
	mu, _ = p.Decide(steady)
	if mu <= 0 {
		t.Fatalf("μ %v under steady symmetric loss noise, want probing", mu)
	}
}

func TestReferencePolicyProbeEqualsDelta(t *testing.T) {
	// The μ=δ calibration: a sole flow at its fair share holds steady under
	// flat signals (a = μ + (1-2·1)·δ = 0).
	p := NewReferencePolicy()
	flat := make([]float64, DefaultConfig().StateDim())
	mu, delta := p.Decide(flat)
	if a := PostProcess(mu, delta, 1); math.Abs(a) > 1e-12 {
		t.Fatalf("sole flow at flat signals acts %v, want 0", a)
	}
}

func TestNNPolicyAndActionToRange(t *testing.T) {
	mu, delta := ActionToRange([]float64{0.5, 0})
	if mu != 0.5 || delta != 0.5 {
		t.Fatalf("ActionToRange = (%v, %v)", mu, delta)
	}
	mu, delta = ActionToRange([]float64{-2, -2})
	if mu != -1 || delta != 0 {
		t.Fatalf("ActionToRange clamp = (%v, %v)", mu, delta)
	}
}

func TestJuryBlackoutBacksOff(t *testing.T) {
	j := NewDefault(1)
	j.cwnd = 100
	// Whole interval lost: maximal back-off.
	j.OnInterval(cc.IntervalStats{Interval: 30 * time.Millisecond, SentPackets: 10, SentBytes: 15000, LostPackets: 10})
	if j.LastAction() != -1 {
		t.Fatalf("blackout action %v, want -1", j.LastAction())
	}
	if j.CWND() >= 100 {
		t.Fatal("blackout did not shrink the window")
	}
}

func TestJurySlowStartDoublesOncePerRTT(t *testing.T) {
	j := NewDefault(1)
	w := j.CWND()
	// Insignificant statistics: 2 acked packets < MinIntervalPackets.
	s1 := stats(2, 30*time.Millisecond, 0, 2, time.Millisecond)
	s1.Now = 100 * time.Millisecond
	j.OnInterval(s1)
	if j.CWND() != 2*w {
		t.Fatalf("slow start grew %v -> %v, want double", w, j.CWND())
	}
	// A second insignificant interval within the same RTT must NOT double
	// again: feedback lags one RTT, so faster doubling is blind.
	s2 := s1
	s2.Now = 110 * time.Millisecond
	j.OnInterval(s2)
	if j.CWND() != 2*w {
		t.Fatalf("doubled twice within one RTT: %v", j.CWND())
	}
	// After a full RTT it may double again.
	s3 := s1
	s3.Now = 200 * time.Millisecond
	j.OnInterval(s3)
	if j.CWND() != 4*w {
		t.Fatalf("did not resume doubling after an RTT: %v", j.CWND())
	}
}

func TestJuryInsignificantWithLossBacksOff(t *testing.T) {
	j := NewDefault(1)
	j.cwnd = 100
	st := stats(2, 30*time.Millisecond, 3, 5, time.Millisecond)
	st.Now = 100 * time.Millisecond
	j.OnInterval(st)
	if j.LastAction() != -1 || j.CWND() >= 100 {
		t.Fatalf("lossy insignificant interval acted %v on cwnd %v", j.LastAction(), j.CWND())
	}
}

func TestJuryPacingFollowsEq8(t *testing.T) {
	j := NewDefault(1)
	j.OnAck(cc.Ack{Bytes: 1500})
	j.OnInterval(stats(100, 30*time.Millisecond, 0, 100, 30*time.Millisecond))
	want := j.CWND() * 1500 * 8 / 0.030
	if math.Abs(j.PacingRate()-want)/want > 1e-9 {
		t.Fatalf("pacing %v, want cwnd/RTT = %v", j.PacingRate(), want)
	}
}

func TestJuryRejectsInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	New(Config{}, nil)
}

func TestJuryIdentity(t *testing.T) {
	j := NewDefault(3)
	if j.Name() != "jury" {
		t.Fatal("name wrong")
	}
	if j.ControlInterval() != 30*time.Millisecond {
		t.Fatal("control interval wrong")
	}
}
