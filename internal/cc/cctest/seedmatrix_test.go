package cctest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/exp"
)

// seedMatrixEnv is one cell of the environment axis of the property matrix.
type seedMatrixEnv struct {
	name    string
	rate    float64
	owd     time.Duration
	bdpFrac float64 // buffer as a fraction of BDP
	loss    float64
}

// seedMatrixEnvs spans the regimes the paper's evaluation sweeps: clean
// broadband, deep-buffered DSL-like, randomly lossy wireless-like, and a
// long-fat shallow-buffered path.
var seedMatrixEnvs = []seedMatrixEnv{
	{"clean", 24e6, 10 * time.Millisecond, 1, 0},
	{"deep-buffer", 12e6, 20 * time.Millisecond, 4, 0},
	{"lossy", 24e6, 10 * time.Millisecond, 1, 0.01},
	{"long-shallow", 48e6, 40 * time.Millisecond, 0.5, 0},
}

var seedMatrixSeeds = []uint64{1, 2}

// TestSeedMatrixInvariants runs every scheme the harness knows (Jury plus
// all ten baselines) across the environment × seed matrix with the simcheck
// invariant checker attached, and asserts the properties that must hold for
// ANY congestion controller, however badly tuned: no emulator invariant is
// violated, delivered throughput never exceeds capacity, and per-flow loss
// accounting closes (acked + lost never exceeds sent).
func TestSeedMatrixInvariants(t *testing.T) {
	horizon := 12 * time.Second
	if testing.Short() {
		horizon = 6 * time.Second
	}
	for _, scheme := range exp.Schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			for _, env := range seedMatrixEnvs {
				for _, seed := range seedMatrixSeeds {
					s := exp.Scenario{
						Name:        fmt.Sprintf("matrix/%s/%s/seed%d", scheme, env.name, seed),
						Rate:        env.rate,
						OneWayDelay: env.owd,
						LossRate:    env.loss,
						Horizon:     horizon,
						Seed:        seed,
						Check:       true,
						Flows: []exp.FlowSpec{
							{Scheme: scheme},
							{Scheme: scheme, Start: horizon / 4},
						},
					}
					s.BufferBytes = s.BufferBDP(env.bdpFrac)
					res, err := exp.Run(s)
					if err != nil {
						t.Fatalf("%s: %v", s.Name, err)
					}
					if !res.Checked {
						t.Fatalf("%s: ran without the invariant checker", s.Name)
					}
					if res.Utilization > 1.001 {
						t.Errorf("%s: utilization %v > 1: delivered more than capacity", s.Name, res.Utilization)
					}
					for _, f := range res.Flows {
						st := f.Stats
						if st.AckedPackets+st.LostPackets > st.SentPackets {
							t.Errorf("%s flow %s: acked %d + lost %d > sent %d",
								s.Name, st.Name, st.AckedPackets, st.LostPackets, st.SentPackets)
						}
						if st.AvgThroughputBps > env.rate*1.001 {
							t.Errorf("%s flow %s: throughput %v exceeds link rate %v",
								s.Name, st.Name, st.AvgThroughputBps, env.rate)
						}
					}
				}
			}
		})
	}
}
