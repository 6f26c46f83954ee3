package exp

import (
	"testing"
	"time"
)

// shortRobustnessOptions keeps the table affordable for the test suite
// while staying in the regime of the acceptance claim.
func shortRobustnessOptions(schemes []string, cases []RobustnessCase) RobustnessOptions {
	return RobustnessOptions{
		Schemes:  schemes,
		Cases:    cases,
		Rate:     40e6,
		OneWay:   10 * time.Millisecond,
		Flows:    3,
		Lifetime: 30 * time.Second,
		Seed:     1,
	}
}

func pickCases(t *testing.T, names ...string) []RobustnessCase {
	t.Helper()
	all := RobustnessCases()
	var out []RobustnessCase
	for _, name := range names {
		found := false
		for _, c := range all {
			if c.Name == name {
				out = append(out, c)
				found = true
			}
		}
		if !found {
			t.Fatalf("no robustness case %q", name)
		}
	}
	return out
}

// TestRobustnessJuryFairUnderBurstLossAndFlaps is the PR's acceptance
// criterion: homogeneous Jury flows keep Jain ≥ 0.9 under burst loss and
// link flaps, with zero unclamped NaN/Inf reaching a rate action. The runs
// execute under the invariant checker (Check is forced in
// RobustnessScenario), so every fault-injected packet is audited too.
func TestRobustnessJuryFairUnderBurstLossAndFlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario robustness table")
	}
	o := shortRobustnessOptions([]string{"jury"}, pickCases(t, "burst-loss", "link-flap"))
	rows, err := RobustnessTable(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Jain < 0.9 {
			t.Errorf("%s/%s: Jain %.3f < 0.9", r.Scheme, r.Fault, r.Jain)
		}
		if r.NonFinite != 0 {
			t.Errorf("%s/%s: %d non-finite actions reached Eq. 7", r.Scheme, r.Fault, r.NonFinite)
		}
		if r.FaultDrops == 0 {
			t.Errorf("%s/%s: fault injector never dropped anything", r.Scheme, r.Fault)
		}
		if r.Utilization < 0.4 {
			t.Errorf("%s/%s: utilization %.3f collapsed", r.Scheme, r.Fault, r.Utilization)
		}
		if r.Digest == 0 {
			t.Errorf("%s/%s: no digest — robustness run not checked", r.Scheme, r.Fault)
		}
	}
}

// TestRobustnessDigestsSequentialVsParallel is the determinism acceptance
// criterion: the same fault scenario + seed must produce an identical
// simcheck digest whether run sequentially or through the RunMany pool.
func TestRobustnessDigestsSequentialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fault case twice")
	}
	o := shortRobustnessOptions([]string{"jury"}, nil)
	o.Lifetime = 10 * time.Second
	o.defaults()
	var jobs []Scenario
	for _, c := range o.Cases {
		jobs = append(jobs, RobustnessScenario(o, "jury", c))
	}
	parallel, err := RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		seq, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Digest == 0 {
			t.Fatalf("%s: no digest (checker not attached?)", job.Name)
		}
		if seq.Digest != parallel[i].Digest {
			t.Errorf("%s: sequential digest %x != parallel %x", job.Name, seq.Digest, parallel[i].Digest)
		}
	}
}

// TestRobustnessTableSmoke runs one fast fault case for every default
// scheme so the full table path (including non-Jury schemes and the
// formatter) is exercised even in -short mode.
func TestRobustnessTableSmoke(t *testing.T) {
	o := RobustnessOptions{
		Schemes:  []string{"jury", "cubic"},
		Cases:    pickCases(t, "duplicate"),
		Rate:     20e6,
		OneWay:   10 * time.Millisecond,
		Flows:    2,
		Lifetime: 8 * time.Second,
		Seed:     3,
	}
	rows, err := RobustnessTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Duplicated == 0 {
			t.Errorf("%s/%s: no duplicates injected", r.Scheme, r.Fault)
		}
		if r.NonFinite != 0 {
			t.Errorf("%s/%s: non-finite actions %d", r.Scheme, r.Fault, r.NonFinite)
		}
	}
	if s := FormatRobustnessTable(rows); s == "" {
		t.Error("empty formatted table")
	}
}

// TestRobustnessScenarioKeepsSeedZero: seed 0 is a seed like any other, so
// `jury sim faults -seed 0` runs the seed its header prints.
func TestRobustnessScenarioKeepsSeedZero(t *testing.T) {
	s := RobustnessScenario(RobustnessOptions{Seed: 0}, "jury", RobustnessCases()[0])
	if s.Seed != 0 {
		t.Fatalf("RobustnessScenario rewrote seed 0 to %d", s.Seed)
	}
}
