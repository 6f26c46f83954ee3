package exp

import (
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// The two studies in this file are interactive probes: they change a manual
// sender's rate between successive n.Run calls on one network, which a
// single build-run-finish pass cannot express. They are the only experiments
// that drive a network themselves instead of going through the run pipeline
// (see execute), so they run without checker, telemetry, observer or store.

// Fig4Row is one sample of the Fig. 4 study: how throughput, RTT, and loss
// respond as a single flow ramps its sending rate through the three queue
// phases (empty → queuing → overflowing).
type Fig4Row struct {
	SendRateBps   float64
	ThroughputBps float64
	AvgRTT        time.Duration
	LossRate      float64
}

// The paper's link for both probes: 100 Mbps, 30 ms RTT, 750 KB buffer.
const (
	probeRate   = 100e6
	probeOneWay = 15 * time.Millisecond
	probeBuffer = 750_000
)

// Fig4SignalPhases ramps a single manual flow from 10% to 250% of the link
// capacity and records the feedback at each step, reproducing Fig. 4's
// phase structure.
func Fig4SignalPhases(seed uint64) ([]Fig4Row, error) {
	var rows []Fig4Row
	const holdPer = 4 * time.Second
	// The ramp is fine-grained around capacity so the intermediate
	// "queuing" phase — RTT inflating while throughput is capped but the
	// buffer has not yet overflowed — is visible, exactly as in Fig. 4.
	var fractions []float64
	for f := 0.1; f < 0.9; f += 0.1 {
		fractions = append(fractions, f)
	}
	for f := 0.9; f < 1.1; f += 0.01 {
		fractions = append(fractions, f)
	}
	for f := 1.1; f <= 2.5; f += 0.2 {
		fractions = append(fractions, f)
	}
	n := netsim.New(netsim.Config{Seed: seed + 1})
	l := n.AddLink(netsim.LinkConfig{Rate: probeRate, Delay: probeOneWay, BufferBytes: probeBuffer})
	man := cc.NewManual(0.1 * probeRate)
	f := n.AddFlow(netsim.FlowConfig{Name: "probe", Path: []*netsim.Link{l},
		Alg: man})
	for i, frac := range fractions {
		rate := probeRate * frac
		man.SetRate(rate)
		start := time.Duration(i) * holdPer
		n.Run(start + holdPer)
		// Measure over the second half of the hold, after transients.
		from, to := start+holdPer/2, start+holdPer
		row := Fig4Row{
			SendRateBps:   rate,
			ThroughputBps: metrics.MeanThroughput(f, from, to),
			AvgRTT:        metrics.MeanRTT(f, from, to),
		}
		var lost, acked float64
		for _, p := range f.Series() {
			if p.T >= from && p.T <= to {
				lost += p.LossRate
				acked++
			}
		}
		if acked > 0 {
			row.LossRate = lost / acked
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5Row is one sample of the Fig. 5 study: the observed throughput change
// when a flow occupying a given share of the link increases its rate 10%.
type Fig5Row struct {
	Share          float64 // the probing flow's pre-probe share of capacity
	ThrChangeRatio float64 // thr_after / thr_before
	EstimatedShare float64 // Eq. 5 inversion of the observed pair
}

// Fig5OccupancyProbe sweeps the probing flow's share of a saturated 2-flow
// bottleneck and measures the throughput response to a +10% rate change,
// then inverts it with Eq. 5 — reproducing both Fig. 5 and the estimator's
// calibration curve.
func Fig5OccupancyProbe(seed uint64) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		n := netsim.New(netsim.Config{Seed: seed + uint64(share*100)})
		l := n.AddLink(netsim.LinkConfig{Rate: probeRate, Delay: probeOneWay, BufferBytes: probeBuffer})
		// Offered loads sum to 120% of capacity so the bottleneck is
		// saturated and shares are admission-proportional (Eq. 2).
		probe := cc.NewManual(1.2 * share * probeRate)
		other := cc.NewManual(1.2 * (1 - share) * probeRate)
		fp := n.AddFlow(netsim.FlowConfig{Name: "probe", Path: []*netsim.Link{l},
			Alg: probe})
		n.AddFlow(netsim.FlowConfig{Name: "other", Path: []*netsim.Link{l},
			Alg: other})
		n.Run(20 * time.Second)
		before := metrics.MeanThroughput(fp, 10*time.Second, 20*time.Second)
		probe.SetRate(1.1 * 1.2 * share * probeRate) // the +10% probe
		n.Run(40 * time.Second)
		after := metrics.MeanThroughput(fp, 30*time.Second, 40*time.Second)
		if before <= 0 {
			continue
		}
		ratio := after / before
		est, _ := core.EstimateOccupancy(1.1, ratio)
		rows = append(rows, Fig5Row{
			Share:          before / probeRate,
			ThrChangeRatio: ratio,
			EstimatedShare: est,
		})
	}
	return rows, nil
}
