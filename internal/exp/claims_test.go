package exp

import "testing"

// TestPaperClaims asserts three of the paper's qualitative claims at the
// reduced scale `jury exp` runs the figures at (the Figures registry's
// fig1Scale, fig7Scale and fig8Scale), seed 42. EXPERIMENTS.md records the values
// these runs measure. The runs are independent and deterministic, so they
// share the cores.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig. 1, Fig. 7(a-d) and Fig. 8 at reduced scale (seconds, not milliseconds)")
	}
	const seed = 42
	for _, tc := range []struct {
		name  string
		claim func(t *testing.T)
	}{
		{"fig1/astraea-unfair-out-of-domain", func(t *testing.T) {
			o := fig1Scale.reduced
			o.Seed = seed
			res, err := Fig1AstraeaGeneralization(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.OutOfDomainJain >= res.InDomainJain {
				t.Errorf("Astraea's Jain on the unseen 350 Mbps link (%.3f) is not below its 100 Mbps Jain (%.3f)",
					res.OutOfDomainJain, res.InDomainJain)
			}
		}},
		{"fig7a-d/jury-converges", func(t *testing.T) {
			for _, p := range Fig7Panels()[:4] {
				t.Run(p.ID, func(t *testing.T) {
					t.Parallel()
					o := fig7Scale.reduced
					o.Seed = seed
					results, err := runFig7([]Fig7Panel{p}, o)
					if err != nil {
						t.Fatal(err)
					}
					if res := results[0]; res.Jain < 0.6 {
						t.Errorf("%s at %.0f Mbps, %v RTT, %.1f%% loss: Jain %.3f, want at least 0.6",
							p.Scheme, p.Rate/1e6, p.RTT, p.Loss*100, res.Jain)
					}
				})
			}
		}},
		{"fig8/rtt-fair", func(t *testing.T) {
			o := fig8Scale.reduced
			o.Seed = seed
			res, err := Fig8RTTFairness(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.LateJain < 0.8 {
				t.Errorf("five Jury flows at 70-210 ms RTT: late Jain %.3f, want at least 0.8", res.LateJain)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.claim(t)
		})
	}
}
