package simcheck

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// faultMatrix is the canonical set of fault configurations every invariant
// must survive. scripts/check.sh runs this test under -race as the
// fault-injection smoke.
func faultMatrix() []struct {
	name string
	cfg  *faults.Config
} {
	return []struct {
		name string
		cfg  *faults.Config
	}{
		{"burst-loss", &faults.Config{
			GE: &faults.GEConfig{PGoodBad: 0.005, PBadGood: 0.25, LossBad: 1},
		}},
		{"reorder", &faults.Config{
			ReorderProb: 0.03, ReorderMaxDelay: 15 * time.Millisecond,
		}},
		{"duplicate", &faults.Config{DupProb: 0.03}},
		{"jitter", &faults.Config{
			JitterProb: 0.05, JitterMax: 8 * time.Millisecond,
		}},
		{"link-flap", &faults.Config{
			Flap: &faults.FlapConfig{MeanUp: 1500 * time.Millisecond, MeanDown: 120 * time.Millisecond},
		}},
		{"combined", &faults.Config{
			GE:          &faults.GEConfig{PGoodBad: 0.003, PBadGood: 0.3, LossBad: 1},
			ReorderProb: 0.01, ReorderMaxDelay: 10 * time.Millisecond,
			DupProb:    0.01,
			JitterProb: 0.02, JitterMax: 5 * time.Millisecond,
			Flap: &faults.FlapConfig{MeanUp: 3 * time.Second, MeanDown: 100 * time.Millisecond},
		}},
	}
}

// faultedDumbbell builds a jury+cubic dumbbell (the mixed pair exercises
// both the interval-driven pipeline and per-ACK controllers) with the fault
// config installed on the bottleneck, runs it checked, and returns the
// checker.
func faultedDumbbell(t *testing.T, seed uint64, fc *faults.Config) *Checker {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: seed})
	l := n.AddLink(netsim.LinkConfig{
		Rate:        30e6,
		Delay:       10 * time.Millisecond,
		BufferBytes: bdpBytes(30e6, 20*time.Millisecond),
		Faults:      fc,
	})
	mk := []func() cc.Algorithm{
		func() cc.Algorithm { return core.NewDefault(seed + 1) },
		func() cc.Algorithm { return cubic.New() },
	}
	for i, m := range mk {
		n.AddFlow(netsim.FlowConfig{
			Name: "f" + string(rune('0'+i)),
			Path: []*netsim.Link{l},
			Alg:  m(),
		})
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	ck := Attach(n)
	n.Run(10 * time.Second)
	return ck
}

// TestFaultMatrixInvariants asserts that every simcheck invariant holds
// under each fault type, that the injector actually fired, and that the run
// digest is reproducible.
func TestFaultMatrixInvariants(t *testing.T) {
	seeds := []uint64{1, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tc := range faultMatrix() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				ck := faultedDumbbell(t, seed, tc.cfg)
				if vs := ck.Finish(); len(vs) > 0 {
					t.Fatalf("seed %d: invariant violations under %s: %v", seed, tc.name, vs)
				}
				var fired bool
				for _, l := range ck.net.Links() {
					if fs := l.FaultStats(); fs != (netsim.FaultStats{}) {
						fired = true
					}
				}
				if !fired {
					t.Fatalf("seed %d: fault config %s never fired", seed, tc.name)
				}
				if again := faultedDumbbell(t, seed, tc.cfg); again.Digest() != ck.Digest() {
					t.Fatalf("seed %d: fault run digest not reproducible (%x vs %x)",
						seed, ck.Digest(), again.Digest())
				}
			}
		})
	}
}

// TestFaultCountersCrossChecked corrupts nothing but verifies the checker
// really compares its ledger against the link: a link with faults must
// report identical counters through both paths.
func TestFaultCountersCrossChecked(t *testing.T) {
	ck := faultedDumbbell(t, 5, &faults.Config{DupProb: 0.05})
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("violations: %v", vs)
	}
	l := ck.net.Links()[0]
	a := ck.links[l]
	if a == nil || a.duplicated == 0 {
		t.Fatal("checker ledger saw no duplicates")
	}
	if a.duplicated != l.FaultStats().Duplicated {
		t.Fatalf("ledger %d != link %d", a.duplicated, l.FaultStats().Duplicated)
	}
}
