package exp

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/traces"
)

// Fig10Row is one point of the performance sweeps: a scheme's single-flow
// link utilization and mean queuing delay at one parameter setting.
type Fig10Row struct {
	Scheme       string
	Param        string  // "bandwidth", "delay", "loss", "buffer"
	X            float64 // Mbps, ms, loss fraction, or BDP multiple
	Utilization  float64
	QueuingDelay float64 // ms
}

// Fig10Options scales the sweeps. The paper sweeps 10-600 Mbps, 15-120 ms
// one-way delay, 0-1.5% loss, and 0.2-16x BDP buffers; zero value runs the
// same ranges with fewer points and shorter flows.
type Fig10Options struct {
	Schemes  []string
	Lifetime time.Duration
	Seed     uint64

	Bandwidths []float64       // bits/second
	Delays     []time.Duration // one-way
	Losses     []float64
	BufferBDPs []float64
}

func (o *Fig10Options) defaults() {
	if o.Schemes == nil {
		o.Schemes = []string{"jury", "astraea", "orca", "aurora", "vivace", "bbr", "cubic", "vegas"}
	}
	if o.Lifetime == 0 {
		o.Lifetime = 40 * time.Second
	}
	if o.Bandwidths == nil {
		o.Bandwidths = []float64{10e6, 100e6, 300e6, 600e6}
	}
	if o.Delays == nil {
		o.Delays = []time.Duration{15 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond, 120 * time.Millisecond}
	}
	if o.Losses == nil {
		o.Losses = []float64{0, 0.002, 0.005, 0.01, 0.015}
	}
	if o.BufferBDPs == nil {
		o.BufferBDPs = []float64{0.2, 0.5, 1, 2, 4, 8, 16}
	}
}

// baseline parameters held constant while one dimension sweeps.
const (
	fig10BaseRate = 100e6
	fig10BaseOWD  = 15 * time.Millisecond
	fig10BaseBDP  = 2.0
)

// Fig10PerformanceSweeps runs all four single-flow sweeps for each scheme.
func Fig10PerformanceSweeps(o Fig10Options) ([]Fig10Row, error) {
	o.defaults()
	var jobs []Scenario
	var rows []Fig10Row
	add := func(scheme, param string, x float64, rate float64, owd time.Duration, loss, bufBDP float64) {
		s := Scenario{
			Name:        fmt.Sprintf("fig10-%s-%s-%v", scheme, param, x),
			Rate:        rate,
			OneWayDelay: owd,
			LossRate:    loss,
			Seed:        o.Seed + hash(scheme+param) + uint64(x*1000),
			Horizon:     o.Lifetime,
			Flows:       []FlowSpec{{Scheme: scheme}},
		}
		s.BufferBytes = s.BufferBDP(bufBDP)
		if rate >= 500e6 {
			s.PacketSize = 6000 // bound event counts on fast links
		}
		jobs = append(jobs, s)
		rows = append(rows, Fig10Row{Scheme: scheme, Param: param, X: x})
	}
	for _, scheme := range o.Schemes {
		for _, bw := range o.Bandwidths {
			add(scheme, "bandwidth", bw/1e6, bw, fig10BaseOWD, 0, fig10BaseBDP)
		}
		for _, d := range o.Delays {
			add(scheme, "delay", float64(d)/1e6, fig10BaseRate, d, 0, fig10BaseBDP)
		}
		for _, l := range o.Losses {
			add(scheme, "loss", l, fig10BaseRate, fig10BaseOWD, l, fig10BaseBDP)
		}
		for _, b := range o.BufferBDPs {
			add(scheme, "buffer", b, fig10BaseRate, fig10BaseOWD, 0, b)
		}
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].Utilization = res.Utilization
		rows[i].QueuingDelay = metrics.MeanQueuingDelayMS(res.FlowSummaries[0], o.Lifetime/2, o.Lifetime)
	}
	return rows, nil
}

// Fig11Row is one scheme's outcome on a challenging link.
type Fig11Row struct {
	Scheme        string
	ThroughputBps float64
	// NormalizedDelay is mean one-way delay / base one-way delay (the
	// paper's x-axis); 1.0 means no inflation.
	NormalizedDelay float64
}

// Fig11Options selects the single-flow Pareto runs of Fig. 11 and Fig. 13.
type Fig11Options struct {
	Schemes  []string
	Lifetime time.Duration
	Seed     uint64
}

func (o *Fig11Options) defaults(schemes []string, lifetime time.Duration) {
	if o.Schemes == nil {
		o.Schemes = schemes
	}
	if o.Lifetime == 0 {
		o.Lifetime = lifetime
	}
}

// runPareto runs one flow per scheme over link — a scenario without flows,
// seed, horizon or buffer, whose Name prefixes each run's — on a buffer of
// bufBDP bandwidth-delay products and reports the throughput/latency Pareto
// points.
func runPareto(o Fig11Options, link Scenario, bufBDP float64) ([]Fig11Row, error) {
	jobs := make([]Scenario, 0, len(o.Schemes))
	for _, scheme := range o.Schemes {
		s := link
		s.Name = link.Name + "-" + scheme
		s.Seed = o.Seed + hash(scheme)
		s.Horizon = o.Lifetime
		s.Flows = []FlowSpec{{Scheme: scheme}}
		s.BufferBytes = s.BufferBDP(bufBDP)
		jobs = append(jobs, s)
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig11Row, 0, len(results))
	for i, res := range results {
		rows = append(rows, paretoRow(o.Schemes[i], res, o.Lifetime))
	}
	return rows, nil
}

// paretoRow reduces one single-flow run to its throughput/latency point.
func paretoRow(scheme string, res *RunResult, lifetime time.Duration) Fig11Row {
	f := res.FlowSummaries[0]
	thr := metrics.MeanThroughput(f, lifetime/3, lifetime)
	rtt := metrics.MeanRTT(f, lifetime/3, lifetime)
	norm := 1.0
	if base := f.BaseRTT(); base > 0 && rtt > 0 {
		norm = float64(rtt) / float64(base)
	}
	return Fig11Row{Scheme: scheme, ThroughputBps: thr, NormalizedDelay: norm}
}

// Fig11Satellite reproduces Fig. 11(a): 42 Mbps, 800 ms RTT, 0.74% loss.
func Fig11Satellite(o Fig11Options) ([]Fig11Row, error) {
	o.defaults([]string{"jury", "astraea", "orca", "aurora", "vivace", "bbr", "cubic", "vegas"}, 60*time.Second)
	return runPareto(o, Scenario{Name: "pareto", Rate: 42e6, OneWayDelay: 400 * time.Millisecond, LossRate: 0.0074}, 1)
}

// Fig11HighSpeed reproduces Fig. 11(b): a 10 Gbps / 15 ms link (MSS scaled
// to bound event counts; see DESIGN.md).
func Fig11HighSpeed(o Fig11Options) ([]Fig11Row, error) {
	o.defaults([]string{"jury", "astraea", "vivace", "bbr", "cubic", "vegas"}, 30*time.Second)
	return runPareto(o, Scenario{Name: "pareto", Rate: 10e9, OneWayDelay: 7500 * time.Microsecond, PacketSize: 60000}, 2)
}

// Fig12Row is one sample of the LTE responsiveness trace.
type Fig12Row struct {
	T           time.Duration
	Scheme      string // "capacity" rows carry the trace itself
	SendRateBps float64
}

// Fig12Options parameterizes the LTE responsiveness study.
type Fig12Options struct {
	Schemes  []string
	Lifetime time.Duration
	Seed     uint64
}

func (o *Fig12Options) defaults() {
	if o.Schemes == nil {
		o.Schemes = []string{"jury", "astraea", "orca", "aurora", "vivace"}
	}
	if o.Lifetime == 0 {
		o.Lifetime = 60 * time.Second
	}
}

// Fig12LTEResponsiveness runs each scheme over the synthetic LTE trace and
// records its sending rate against the capacity.
func Fig12LTEResponsiveness(o Fig12Options) ([]Fig12Row, error) {
	o.defaults()
	cfg := traces.DefaultLTE(o.Seed + 99)
	tr, err := traces.SynthesizeLTE(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	for t := time.Duration(0); t < o.Lifetime; t += time.Second {
		rows = append(rows, Fig12Row{T: t, Scheme: "capacity", SendRateBps: tr.RateAt(t)})
	}
	jobs := make([]Scenario, 0, len(o.Schemes))
	for _, scheme := range o.Schemes {
		jobs = append(jobs, Scenario{
			Name:        "fig12-" + scheme,
			Trace:       tr,
			Rate:        cfg.Mean,
			OneWayDelay: 15 * time.Millisecond,
			BufferBytes: int(cfg.Mean / 8 * 0.5), // generous cellular buffer
			Seed:        o.Seed + hash(scheme),
			Horizon:     o.Lifetime,
			Flows:       []FlowSpec{{Scheme: scheme}},
		})
	}
	results, err := RunMany(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		for _, b := range bucketMeans(res.FlowSummaries[0].Series(), time.Second, func(p netsim.SeriesPoint) float64 { return p.SendRateBps }) {
			rows = append(rows, Fig12Row{T: b.end, Scheme: o.Schemes[i], SendRateBps: b.mean})
		}
	}
	return rows, nil
}

// Fig12Tracking summarizes responsiveness as the mean utilization of the
// time-varying capacity (1.0 = perfectly tracked, never exceeded).
func Fig12Tracking(rows []Fig12Row, scheme string) float64 {
	caps := map[time.Duration]float64{}
	for _, r := range rows {
		if r.Scheme == "capacity" {
			caps[r.T] = r.SendRateBps
		}
	}
	var sum float64
	var n int
	for _, r := range rows {
		if r.Scheme != scheme {
			continue
		}
		if c, ok := caps[r.T]; ok && c > 0 {
			u := r.SendRateBps / c
			if u > 1 {
				u = 1
			}
			sum += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fig13WAN emulates the AWS paths of Fig. 13 (see DESIGN.md substitutions):
// intra-continental ≈ 1.4 Gbps with ~35 ms RTT, inter-continental ≈
// 1.2 Gbps with ~220 ms RTT, both with ±15% capacity jitter standing in for
// cross traffic.
func fig13WAN(intra bool, o Fig11Options) ([]Fig11Row, error) {
	o.defaults([]string{"jury", "astraea", "orca", "aurora", "vivace", "bbr", "cubic", "vegas"}, 30*time.Second)
	rate, owd := 1.4e9, 17500*time.Microsecond
	if !intra {
		rate, owd = 1.2e9, 110*time.Millisecond
	}
	return runPareto(o, Scenario{
		Name:        "fig13",
		Trace:       &traces.Jittered{Base: traces.Constant(rate), Period: 500 * time.Millisecond, Amplitude: 0.15, Seed: o.Seed + 7},
		Rate:        rate,
		OneWayDelay: owd,
		PacketSize:  9000,
	}, 1.5)
}
