package exp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/simcore"
)

// threeFlowScenario builds the canonical fairness scenario: three
// homogeneous flows, staggered starts, each running Lifetime.
func threeFlowScenario(scheme string, rate float64, owd time.Duration, loss float64, bufBDP float64, stagger, lifetime time.Duration, seed uint64) Scenario {
	s := Scenario{
		Name:        fmt.Sprintf("3x%s@%0.0fMbps", scheme, rate/1e6),
		Rate:        rate,
		OneWayDelay: owd,
		LossRate:    loss,
		Seed:        seed,
		Horizon:     2*stagger + lifetime,
	}
	s.BufferBytes = s.BufferBDP(bufBDP)
	for i := 0; i < 3; i++ {
		s.Flows = append(s.Flows, FlowSpec{
			Scheme:   scheme,
			Start:    time.Duration(i) * stagger,
			Duration: lifetime,
		})
	}
	return s
}

// FlowSeriesRow is one plotted point of a throughput-dynamics figure.
type FlowSeriesRow struct {
	T    time.Duration
	Flow string
	Mbps float64
}

// SeriesRows flattens flow series into per-interval mean throughputs for
// plotting and printing. It is generic over metrics.FlowSeries so both live
// flows and stored run summaries plot.
func SeriesRows[F metrics.FlowSeries](flows []F, every time.Duration) []FlowSeriesRow {
	var rows []FlowSeriesRow
	for _, f := range flows {
		for _, b := range bucketMeans(f.Series(), every, func(p netsim.SeriesPoint) float64 { return p.ThroughputBps }) {
			rows = append(rows, FlowSeriesRow{T: b.end, Flow: f.Name(), Mbps: b.mean / 1e6})
		}
	}
	return rows
}

// bucket is the mean of a series field over one interval.
type bucket struct {
	end  time.Duration
	mean float64
}

// bucketMeans averages field over consecutive intervals of length every. An
// interval closes at its first sample at or past its end, which counts
// toward it; samples after the last closed interval are dropped.
func bucketMeans(series []netsim.SeriesPoint, every time.Duration, field func(netsim.SeriesPoint) float64) []bucket {
	var out []bucket
	var acc float64
	var n int
	next := every
	for _, p := range series {
		acc += field(p)
		n++
		if p.T >= next {
			out = append(out, bucket{next, acc / float64(n)})
			acc, n = 0, 0
			next += every
		}
	}
	return out
}

// Fig1Result holds the Astraea generalization-failure demonstration.
type Fig1Result struct {
	InDomainJain    float64 // 100 Mbps (trained region)
	OutOfDomainJain float64 // 350 Mbps (unseen)
	InDomainSeries  []FlowSeriesRow
	OutDomainSeries []FlowSeriesRow
}

// Fig1Options parameterizes the experiment: the paper's panels (100 vs
// 350 Mbps, 30 ms RTT, 3 flows). The zero value staggers the flows 20 s and
// runs each 60 s; the paper staggers 60 s and runs 180 s.
type Fig1Options struct {
	Stagger  time.Duration
	Lifetime time.Duration
	Seed     uint64
}

func (o *Fig1Options) defaults() {
	if o.Stagger == 0 {
		o.Stagger = 20 * time.Second
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
}

// Fig1AstraeaGeneralization reproduces Fig. 1: Astraea is fair in its
// training region and fails to converge on an unseen 350 Mbps link.
func Fig1AstraeaGeneralization(o Fig1Options) (*Fig1Result, error) {
	o.defaults()
	jobs := make([]Scenario, 0, 2)
	for _, rate := range []float64{100e6, 350e6} {
		jobs = append(jobs, threeFlowScenario("astraea", rate, 15*time.Millisecond, 0, 1.5, o.Stagger, o.Lifetime, o.Seed+uint64(rate/1e6)))
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		InDomainJain:    metrics.TimewiseJain(results[0].Flows),
		OutOfDomainJain: metrics.TimewiseJain(results[1].Flows),
		InDomainSeries:  SeriesRows(results[0].Flows, 5*time.Second),
		OutDomainSeries: SeriesRows(results[1].Flows, 5*time.Second),
	}, nil
}

// Fig6Row is one scheme's aggregate fairness over the random environments.
type Fig6Row struct {
	Scheme   string
	MeanJain float64
	P5       float64
	P95      float64
	Runs     int
}

// Fig6Options parameterizes the Jain-index comparison. The paper runs 60
// repetitions of 3 staggered flows over bandwidths 20-400 Mbps, one-way
// delays 10-75 ms, and loss up to 0.3%; the zero value runs a reduced but
// identically distributed sample: 10 repetitions, 20 s stagger, 60 s flows.
type Fig6Options struct {
	Runs     int
	Stagger  time.Duration
	Lifetime time.Duration
	MaxRate  float64
	Schemes  []string
	Seed     uint64
}

func (o *Fig6Options) defaults() {
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.Stagger == 0 {
		o.Stagger = 20 * time.Second
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
	if o.MaxRate == 0 {
		o.MaxRate = 400e6
	}
	if o.Schemes == nil {
		o.Schemes = baselineSchemes
	}
}

// Fig6JainIndex runs the homogeneous 3-flow fairness comparison across
// randomly sampled environments and reports mean/5th/95th-percentile
// time-averaged Jain indices per scheme.
func Fig6JainIndex(o Fig6Options) ([]Fig6Row, error) {
	o.defaults()
	// Sample every environment first, sequentially, so each scheme's RNG
	// stream is consumed in the same order as the original nested loops;
	// only the simulation runs fan out.
	jobs := make([]Scenario, 0, len(o.Schemes)*o.Runs)
	for _, scheme := range o.Schemes {
		rng := simcore.NewRNG(o.Seed ^ hash(scheme))
		for r := 0; r < o.Runs; r++ {
			rate := rng.Range(20e6, o.MaxRate)
			owd := time.Duration(rng.Range(float64(10*time.Millisecond), float64(75*time.Millisecond)))
			loss := rng.Range(0, 0.003)
			jobs = append(jobs, threeFlowScenario(scheme, rate, owd, loss, 1.5, o.Stagger, o.Lifetime, o.Seed+uint64(r)))
		}
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, 0, len(o.Schemes))
	for si, scheme := range o.Schemes {
		var jains []float64
		for r := 0; r < o.Runs; r++ {
			jains = append(jains, metrics.TimewiseJain(results[si*o.Runs+r].Flows))
		}
		pcts := metrics.Percentiles(jains, 5, 95)
		rows = append(rows, Fig6Row{
			Scheme:   scheme,
			MeanJain: metrics.Mean(jains),
			P5:       pcts[0],
			P95:      pcts[1],
			Runs:     len(jains),
		})
	}
	return rows, nil
}

func hash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Fig7Panel identifies one panel of the convergence-dynamics figure.
type Fig7Panel struct {
	ID     string // "a".."h"
	Scheme string
	Rate   float64
	RTT    time.Duration // full base round-trip
	Loss   float64
}

// Fig7Panels returns the eight published panels.
func Fig7Panels() []Fig7Panel {
	return []Fig7Panel{
		{"a", "jury", 50e6, 30 * time.Millisecond, 0},
		{"b", "jury", 350e6, 30 * time.Millisecond, 0},
		{"c", "jury", 350e6, 150 * time.Millisecond, 0},
		{"d", "jury", 350e6, 150 * time.Millisecond, 0.002},
		{"e", "astraea", 350e6, 30 * time.Millisecond, 0},
		{"f", "vivace", 350e6, 150 * time.Millisecond, 0},
		{"g", "bbr", 350e6, 150 * time.Millisecond, 0.002},
		{"h", "orca", 350e6, 150 * time.Millisecond, 0.002},
	}
}

// Fig7Result is one panel's outcome.
type Fig7Result struct {
	Panel       Fig7Panel
	Jain        float64 // time-averaged Jain over the run
	Utilization float64 // bottleneck utilization over the run
	// LastJoinConvergence is how long the last-joining flow took to first
	// sustain 80% of its fair share (−1 if never) — the paper's
	// "convergence speed" reading of the Fig. 7 panels.
	LastJoinConvergence time.Duration
	Series              []FlowSeriesRow
}

// Fig7Options scales the convergence panels. The zero value staggers the
// three flows 20 s and runs each 60 s; the paper staggers 60 s and runs
// 180 s.
type Fig7Options struct {
	Stagger  time.Duration
	Lifetime time.Duration
	Seed     uint64
}

func (o *Fig7Options) defaults() {
	if o.Stagger == 0 {
		o.Stagger = 20 * time.Second
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
}

func fig7Result(p Fig7Panel, o Fig7Options, res *RunResult) *Fig7Result {
	last := res.Flows[len(res.Flows)-1]
	return &Fig7Result{
		Panel:               p,
		Jain:                metrics.TimewiseJain(res.Flows),
		Utilization:         res.Utilization,
		LastJoinConvergence: metrics.ConvergenceTime(last, 2*o.Stagger, p.Rate/3, 0.8, 5),
		Series:              SeriesRows(res.Flows, 5*time.Second),
	}
}

// Fig7AllPanels runs every published panel of Fig. 7, fanning the
// simulations out over the parallel runner.
func Fig7AllPanels(o Fig7Options) ([]*Fig7Result, error) {
	return runFig7(Fig7Panels(), o)
}

// runFig7 runs the given panels of Fig. 7; `jury exp -exp fig7a` is the
// one-panel case.
func runFig7(panels []Fig7Panel, o Fig7Options) ([]*Fig7Result, error) {
	o.defaults()
	jobs := make([]Scenario, len(panels))
	for i, p := range panels {
		jobs[i] = threeFlowScenario(p.Scheme, p.Rate, p.RTT/2, p.Loss, 1.5, o.Stagger, o.Lifetime, o.Seed+hash(p.ID))
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]*Fig7Result, len(panels))
	for i, p := range panels {
		out[i] = fig7Result(p, o, results[i])
	}
	return out, nil
}

// Fig8Result is the RTT-fairness experiment outcome.
type Fig8Result struct {
	Series     []FlowSeriesRow
	LateShares []float64 // per-flow mean throughput in the all-active window
	LateJain   float64
	AvgRTTms   []float64
}

// Fig8Options scales the RTT-fairness run. The zero value staggers the
// five flows 20 s and runs 100 s past the last start; the paper staggers
// 60 s and runs 300 s.
type Fig8Options struct {
	Stagger  time.Duration
	Lifetime time.Duration
	Seed     uint64
}

func (o *Fig8Options) defaults() {
	if o.Stagger == 0 {
		o.Stagger = 20 * time.Second
	}
	if o.Lifetime == 0 {
		o.Lifetime = 100 * time.Second
	}
}

// Fig8RTTFairness launches five Jury flows with base RTTs of 70, 110, 150,
// 190, and 210 ms at staggered starts and reports their shares.
func Fig8RTTFairness(o Fig8Options) (*Fig8Result, error) {
	o.defaults()
	const rate = 100e6
	baseRTTs := []time.Duration{70, 110, 150, 190, 210}
	s := Scenario{
		Name:        "fig8-rtt-fairness",
		Rate:        rate,
		OneWayDelay: 5 * time.Millisecond,
		Seed:        o.Seed,
	}
	s.BufferBytes = int(1.0 * rate / 8 * 0.210)
	lastStart := time.Duration(len(baseRTTs)-1) * o.Stagger
	s.Horizon = lastStart + o.Lifetime
	for i, ms := range baseRTTs {
		extra := ms*time.Millisecond/2 - s.OneWayDelay
		s.Flows = append(s.Flows, FlowSpec{
			Scheme:      "jury",
			Start:       time.Duration(i) * o.Stagger,
			ExtraOneWay: extra,
		})
	}
	res, err := Run(s)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{Series: SeriesRows(res.Flows, 5*time.Second)}
	from, to := lastStart+o.Lifetime/3, s.Horizon
	for _, f := range res.Flows {
		out.LateShares = append(out.LateShares, metrics.MeanThroughput(f, from, to))
		out.AvgRTTms = append(out.AvgRTTms, float64(metrics.MeanRTT(f, from, to))/1e6)
	}
	out.LateJain = metrics.JainIndex(out.LateShares)
	return out, nil
}

// Fig9Row is one scheme's friendliness measurement at one RTT.
type Fig9Row struct {
	Scheme string
	RTT    time.Duration
	// Ratio is scheme throughput / Cubic throughput when sharing the link;
	// 1 is ideal friendliness.
	Ratio float64
}

// Fig9Options scales the friendliness sweep. The zero value runs 60 s at
// 50, 150 and 300 ms RTT; the paper runs 120 s at every 50 ms from 50 to
// 300 ms.
type Fig9Options struct {
	Rate     float64
	RTTs     []time.Duration
	Lifetime time.Duration
	Schemes  []string
	Seed     uint64
}

func (o *Fig9Options) defaults() {
	if o.Rate == 0 {
		o.Rate = 100e6
	}
	if o.RTTs == nil {
		o.RTTs = []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond}
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
	if o.Schemes == nil {
		o.Schemes = []string{"jury", "aurora", "orca", "vivace", "bbr", "vegas", "astraea"}
	}
}

// Fig9Friendliness runs each scheme against one Cubic flow on a 1-BDP
// buffer and reports the throughput ratio across base RTTs.
func Fig9Friendliness(o Fig9Options) ([]Fig9Row, error) {
	o.defaults()
	var jobs []Scenario
	var rows []Fig9Row
	for _, scheme := range o.Schemes {
		for _, rtt := range o.RTTs {
			s := Scenario{
				Name:        fmt.Sprintf("fig9-%s-%v", scheme, rtt),
				Rate:        o.Rate,
				OneWayDelay: rtt / 2,
				Seed:        o.Seed + hash(scheme) + uint64(rtt),
				Horizon:     o.Lifetime,
				Flows: []FlowSpec{
					{Scheme: scheme},
					{Scheme: "cubic"},
				},
			}
			s.BufferBytes = s.BufferBDP(1)
			jobs = append(jobs, s)
			rows = append(rows, Fig9Row{Scheme: scheme, RTT: rtt})
		}
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		from := o.Lifetime / 3
		a := metrics.MeanThroughput(res.Flows[0], from, o.Lifetime)
		b := metrics.MeanThroughput(res.Flows[1], from, o.Lifetime)
		rows[i].Ratio = math.Inf(1)
		if b > 0 {
			rows[i].Ratio = a / b
		}
	}
	return rows, nil
}
