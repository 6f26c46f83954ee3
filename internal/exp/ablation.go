package exp

import (
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
)

// AblationRow reports one Jury variant's fairness and performance on the
// canonical 3-flow unseen-environment scenario.
type AblationRow struct {
	Variant     string
	Jain        float64 // time-averaged Jain index
	Utilization float64
	QueueMS     float64
}

// AblationOptions parameterizes the ablation study. The zero value staggers
// the three flows 20 s and runs each 60 s; `-full` staggers 60 s and runs
// 180 s.
type AblationOptions struct {
	Stagger  time.Duration
	Lifetime time.Duration
	Seed     uint64
}

func (o *AblationOptions) defaults() {
	if o.Stagger == 0 {
		o.Stagger = 20 * time.Second
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
}

// zeroDeltaPolicy collapses the decision range to its mean: the
// post-processing phase becomes a no-op (a = μ for every flow), removing
// the paper's fairness mechanism.
type zeroDeltaPolicy struct{ inner core.Policy }

func (p zeroDeltaPolicy) Decide(state []float64) (float64, float64) {
	mu, _ := p.inner.Decide(state)
	return mu, 0
}

// AblationVariants returns the design-choice ablations of DESIGN.md, each a
// factory for one flow's controller.
func AblationVariants() map[string]func(seed uint64) cc.Algorithm {
	return map[string]func(seed uint64) cc.Algorithm{
		"jury-full": func(seed uint64) cc.Algorithm {
			return core.NewDefault(seed)
		},
		"no-post-processing": func(seed uint64) cc.Algorithm {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			return core.New(cfg, zeroDeltaPolicy{core.NewReferencePolicy()})
		},
		"no-exploration-action": func(seed uint64) cc.Algorithm {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.ExploreProb = 0
			return core.New(cfg, core.NewReferencePolicy())
		},
		"no-signal-filter": func(seed uint64) cc.Algorithm {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.OccupancyWindow = 1 // raw per-interval Eq. 5 samples
			return core.New(cfg, core.NewReferencePolicy())
		},
	}
}

// RunAblation runs the 3-flow scenario for each variant (in sorted variant
// order) through RunMany.
func RunAblation(o AblationOptions) ([]AblationRow, error) {
	o.defaults()
	const rate = 200e6 // outside the training domain
	variants := AblationVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	horizon := 2*o.Stagger + o.Lifetime
	jobs := make([]Scenario, len(names))
	for vi, name := range names {
		mk := variants[name]
		s := Scenario{
			Name: "ablation-" + name, Rate: rate, OneWayDelay: 15 * time.Millisecond,
			BufferBytes: int(1.5 * rate / 8 * 0.030),
			Horizon:     horizon, Seed: o.Seed,
		}
		for i := 0; i < 3; i++ {
			seed := o.Seed*100 + uint64(i) + 1
			s.Flows = append(s.Flows, FlowSpec{
				Scheme: name, Start: time.Duration(i) * o.Stagger,
				CC: func(uint64) cc.Algorithm { return mk(seed) },
			})
		}
		jobs[vi] = s
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(names))
	for vi, r := range results {
		var q float64
		for _, f := range r.Flows {
			q += metrics.MeanQueuingDelayMS(f, horizon/2, horizon)
		}
		rows[vi] = AblationRow{
			Variant:     names[vi],
			Jain:        metrics.TimewiseJain(r.Flows),
			Utilization: r.Utilization,
			QueueMS:     q / float64(len(r.Flows)),
		}
	}
	return rows, nil
}
