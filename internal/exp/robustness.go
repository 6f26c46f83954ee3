package exp

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// RobustnessCase pairs a named fault configuration with the adversarial
// network it emulates. The family deliberately sits outside Jury's Table 1
// training distribution: the paper's generalizability claim is that the
// (μ, δ) decision range stays well-behaved in environments the policy never
// saw, which is exactly what learning-based schemes are known to fail at.
type RobustnessCase struct {
	Name   string
	Faults *faults.Config
}

// RobustnessCases returns the canonical fault family of the `jury sim
// faults` robustness table: a clean baseline plus one case per fault type
// and a combined worst-case.
func RobustnessCases() []RobustnessCase {
	return []RobustnessCase{
		{Name: "clean"},
		{Name: "burst-loss", Faults: &faults.Config{
			// ~0.8% stationary loss in mean bursts of 4 packets: the bursty
			// counterpart of Fig. 10c's ≤1% i.i.d. random-loss sweep.
			GE: &faults.GEConfig{PGoodBad: 0.002, PBadGood: 0.25, LossBad: 1},
		}},
		{Name: "reorder", Faults: &faults.Config{
			ReorderProb: 0.02, ReorderMaxDelay: 20 * time.Millisecond,
		}},
		{Name: "duplicate", Faults: &faults.Config{DupProb: 0.01}},
		{Name: "jitter", Faults: &faults.Config{
			JitterProb: 0.05, JitterMax: 10 * time.Millisecond,
		}},
		{Name: "link-flap", Faults: &faults.Config{
			Flap: &faults.FlapConfig{MeanUp: 8 * time.Second, MeanDown: 200 * time.Millisecond},
		}},
		{Name: "combined", Faults: &faults.Config{
			GE:          &faults.GEConfig{PGoodBad: 0.001, PBadGood: 0.25, LossBad: 1},
			ReorderProb: 0.01, ReorderMaxDelay: 10 * time.Millisecond,
			DupProb:    0.005,
			JitterProb: 0.02, JitterMax: 5 * time.Millisecond,
			Flap: &faults.FlapConfig{MeanUp: 15 * time.Second, MeanDown: 150 * time.Millisecond},
		}},
	}
}

// RobustnessRow is one (scheme, fault) cell of the robustness table.
type RobustnessRow struct {
	Scheme string
	Fault  string

	Jain        float64 // homogeneous-flow Jain index over the late window
	Utilization float64
	MeanLoss    float64 // mean lifetime loss rate across flows

	// Jury guard counters, summed over the scenario's flows (zero for
	// non-Jury schemes). NonFinite must stay zero: no unclamped NaN/Inf may
	// ever reach a rate action.
	Degraded  int64
	NonFinite int64

	// Fault-injector counters from the bottleneck link.
	FaultDrops int64
	Reordered  int64
	Duplicated int64

	Digest uint64 // simcheck digest (all robustness runs execute checked)
}

// RobustnessOptions parameterizes RobustnessTable. The zero value runs the
// default homogeneous-flow dumbbell: 60 Mbps, 30 ms RTT, 1 BDP buffer,
// 3 flows, 60 s.
type RobustnessOptions struct {
	Schemes  []string // default: jury, bbr, cubic
	Cases    []RobustnessCase
	Rate     float64
	OneWay   time.Duration
	Flows    int
	Lifetime time.Duration
	Seed     uint64
}

func (o *RobustnessOptions) defaults() {
	if len(o.Schemes) == 0 {
		o.Schemes = []string{"jury", "bbr", "cubic"}
	}
	if len(o.Cases) == 0 {
		o.Cases = RobustnessCases()
	}
	if o.Rate == 0 {
		o.Rate = 60e6
	}
	if o.OneWay == 0 {
		o.OneWay = 15 * time.Millisecond
	}
	if o.Flows == 0 {
		o.Flows = 3
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
}

// RobustnessScenario builds the checked scenario for one (scheme, case)
// cell.
func RobustnessScenario(o RobustnessOptions, scheme string, c RobustnessCase) Scenario {
	o.defaults()
	s := Scenario{
		Name:        fmt.Sprintf("robust-%s-%s", scheme, c.Name),
		Rate:        o.Rate,
		OneWayDelay: o.OneWay,
		Horizon:     o.Lifetime,
		Seed:        o.Seed,
		Faults:      c.Faults,
		Check:       true, // robustness claims are only as good as the emulator: always audit
	}
	s.BufferBytes = s.BufferBDP(1)
	for i := 0; i < o.Flows; i++ {
		s.Flows = append(s.Flows, FlowSpec{Scheme: scheme})
	}
	return s
}

// RobustnessTable runs every scheme under every fault case (in parallel via
// RunMany) and reports fairness, efficiency, and degradation counters: the
// reproducible form of the paper's "robust in unseen environments" claim.
func RobustnessTable(o RobustnessOptions) ([]RobustnessRow, error) {
	o.defaults()
	var jobs []Scenario
	for _, scheme := range o.Schemes {
		for _, c := range o.Cases {
			jobs = append(jobs, RobustnessScenario(o, scheme, c))
		}
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]RobustnessRow, 0, len(results))
	i := 0
	for _, scheme := range o.Schemes {
		for _, c := range o.Cases {
			rows = append(rows, robustnessRow(scheme, c, results[i], o))
			i++
		}
	}
	return rows, nil
}

func robustnessRow(scheme string, c RobustnessCase, r *RunResult, o RobustnessOptions) RobustnessRow {
	row := RobustnessRow{
		Scheme:      scheme,
		Fault:       c.Name,
		Utilization: r.Utilization,
		Digest:      r.Digest,
	}
	// Late-window shares: ignore the convergence transient, like Fig. 8.
	from := o.Lifetime / 3
	shares := make([]float64, 0, len(r.Flows))
	var lossSum float64
	for _, f := range r.Flows {
		shares = append(shares, metrics.MeanThroughput(f, from, o.Lifetime))
		lossSum += f.Stats.LossRate
		row.Degraded += f.Degraded
		row.NonFinite += f.NonFinite
	}
	row.Jain = metrics.JainIndex(shares)
	row.MeanLoss = lossSum / float64(len(r.Flows))
	row.FaultDrops = r.FaultDrops
	row.Reordered = r.Reordered
	row.Duplicated = r.Duplicated
	return row
}

// FormatRobustnessTable renders rows for the CLI.
func FormatRobustnessTable(rows []RobustnessRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Scheme,
			r.Fault,
			fmt.Sprintf("%.3f", r.Jain),
			fmt.Sprintf("%.3f", r.Utilization),
			fmt.Sprintf("%.3f%%", r.MeanLoss*100),
			fmt.Sprintf("%d", r.Degraded),
			fmt.Sprintf("%d", r.NonFinite),
			fmt.Sprintf("%d", r.FaultDrops),
			fmt.Sprintf("%d", r.Reordered),
			fmt.Sprintf("%d", r.Duplicated),
			fmt.Sprintf("%016x", r.Digest),
		})
	}
	return FormatTable([]string{
		"scheme", "fault", "jain", "util", "loss", "degraded", "nonfinite",
		"fdrops", "reorder", "dup", "digest",
	}, out)
}
