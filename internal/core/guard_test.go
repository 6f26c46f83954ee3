package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
)

// constPolicy returns a fixed decision range (possibly non-finite) so tests
// can poison the decision boundary deliberately.
type constPolicy struct{ mu, delta float64 }

func (p constPolicy) Decide([]float64) (float64, float64) { return p.mu, p.delta }

// feedIntervals drives the controller through n model-path intervals:
// enough acked packets to clear the statistics-significance rule, no
// losses, and a plausible RTT.
func feedIntervals(j *Jury, n int) {
	base := 20 * time.Millisecond
	for i := 0; i < n; i++ {
		now := time.Duration(i+1) * j.cfg.Interval
		j.OnInterval(cc.IntervalStats{
			Now:          now,
			Interval:     j.cfg.Interval,
			AckedBytes:   50 * 1500,
			AckedPackets: 50,
			SentBytes:    50 * 1500,
			SentPackets:  50,
			AvgRTT:       base + time.Duration(i%3)*time.Millisecond,
			MinRTT:       base,
			FlowMinRTT:   base,
		})
	}
}

func guardedJury(p Policy) *Jury {
	cfg := DefaultConfig()
	cfg.ExploreProb = 0 // deterministic action path
	return New(cfg, p)
}

func TestGuardDegradesOnNaNPolicyOutput(t *testing.T) {
	j := guardedJury(constPolicy{mu: math.NaN(), delta: 0.5})
	feedIntervals(j, 40)
	if j.DegradedDecisions() == 0 {
		t.Fatal("NaN policy output never triggered the degradation guard")
	}
	if j.NonFiniteActions() != 0 {
		t.Fatalf("%d non-finite actions slipped past the decision guard", j.NonFiniteActions())
	}
	if !isFinite(j.CWND()) || j.CWND() < minCwnd {
		t.Fatalf("cwnd %v corrupted", j.CWND())
	}
	if !isFinite(j.PacingRate()) {
		t.Fatalf("pacing %v corrupted", j.PacingRate())
	}
}

func TestGuardDegradesOnInfDelta(t *testing.T) {
	j := guardedJury(constPolicy{mu: 0.1, delta: math.Inf(1)})
	feedIntervals(j, 40)
	if j.DegradedDecisions() == 0 {
		t.Fatal("Inf delta never triggered the degradation guard")
	}
	if j.NonFiniteActions() != 0 || !isFinite(j.CWND()) {
		t.Fatalf("guard leaked: nonfinite=%d cwnd=%v", j.NonFiniteActions(), j.CWND())
	}
}

// TestGuardClampsOutOfRangePolicy verifies out-of-range but finite output is
// clamped, not degraded: the decision range contract is μ∈[−1,1], δ∈[0,1].
func TestGuardClampsOutOfRangePolicy(t *testing.T) {
	j := guardedJury(constPolicy{mu: 5, delta: -3})
	feedIntervals(j, 40)
	if j.DegradedDecisions() != 0 {
		t.Fatalf("finite out-of-range output degraded (%d) instead of clamped", j.DegradedDecisions())
	}
	mu, delta := j.LastRange()
	if mu != 1 || delta != 0 {
		t.Fatalf("LastRange = (%v, %v), want clamped (1, 0)", mu, delta)
	}
	if a := j.LastAction(); a < -1 || a > 1 {
		t.Fatalf("action %v outside [-1, 1]", a)
	}
}

// TestGuardFallbackIsAIMD checks the degraded action's direction: retreat
// under loss, probe without.
func TestGuardFallbackIsAIMD(t *testing.T) {
	j := guardedJury(constPolicy{mu: math.NaN(), delta: math.NaN()})
	feedIntervals(j, 20) // no losses: fallback probes
	if a := j.LastAction(); a != 1 {
		t.Fatalf("loss-free fallback action %v, want +1", a)
	}
	j.OnInterval(cc.IntervalStats{
		Now: time.Second, Interval: j.cfg.Interval,
		AckedPackets: 50, SentPackets: 55, LostPackets: 2,
		AckedBytes: 50 * 1500, SentBytes: 55 * 1500,
		AvgRTT: 20 * time.Millisecond, MinRTT: 20 * time.Millisecond,
		FlowMinRTT: 20 * time.Millisecond,
	})
	if a := j.LastAction(); a != -1 {
		t.Fatalf("lossy fallback action %v, want -1", a)
	}
}

// TestApplyActionLastDitchGuard drives a non-finite action directly into
// Eq. 7 (bypassing decide) and checks the final backstop.
func TestApplyActionLastDitchGuard(t *testing.T) {
	j := guardedJury(nil)
	before := j.CWND()
	j.applyAction(math.NaN())
	if j.NonFiniteActions() != 1 {
		t.Fatalf("NonFiniteActions = %d, want 1", j.NonFiniteActions())
	}
	if !isFinite(j.CWND()) || j.CWND() > before {
		t.Fatalf("cwnd %v after NaN action (was %v): must retreat and stay finite", j.CWND(), before)
	}
	// A corrupted window itself is also repaired.
	j.cwnd = math.NaN()
	j.applyAction(0.5)
	if j.CWND() != minCwnd {
		t.Fatalf("NaN cwnd not reset to floor: %v", j.CWND())
	}
}

// TestGuardQuiescentOnHealthyPolicy: the guard must be invisible on the
// normal path — no degradations, no clamping effects with the reference
// policy.
func TestGuardQuiescentOnHealthyPolicy(t *testing.T) {
	j := guardedJury(NewReferencePolicy())
	feedIntervals(j, 60)
	if j.DegradedDecisions() != 0 || j.NonFiniteActions() != 0 {
		t.Fatalf("guard fired on a healthy policy: degraded=%d nonfinite=%d",
			j.DegradedDecisions(), j.NonFiniteActions())
	}
}
