// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs a scaled-down but shape-faithful version of the
// corresponding experiment (this machine has one CPU; the paper used a
// testbed — see DESIGN.md) and reports the figure's headline quantities as
// benchmark metrics; run with -v to also get the underlying rows. The full
// published protocol is available through `jury exp -full`.
//
//	go test -bench=. -benchmem
package jury_test

import (
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
)

// benchSeed keeps all benchmark runs deterministic.
const benchSeed = 42

// BenchmarkTab01TrainingDomain prints Table 1 from the live configuration.
func BenchmarkTab01TrainingDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Tab1Rows()
		if len(rows) != 5 {
			b.Fatal("table 1 incomplete")
		}
		for _, r := range rows {
			b.Logf("%s", r)
		}
	}
}

// BenchmarkTab02Hyperparameters prints Table 2 from the live configuration.
func BenchmarkTab02Hyperparameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Tab2Rows()
		if len(rows) != 9 {
			b.Fatal("table 2 incomplete")
		}
		for _, r := range rows {
			b.Logf("%s", r)
		}
	}
}

// BenchmarkTab03ScaleFairness reproduces Table 3: long/short flow mixes and
// heterogeneous-RTT mixes at scale. The paper's headline is that per-class
// mean throughputs are nearly equal (11.4 vs 10.9 Mbps; 10.3 vs 11.1 Mbps).
func BenchmarkTab03ScaleFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := exp.Tab3Options{Repeats: 2, Lifetime: 60 * time.Second, Seed: benchSeed}
		ls, err := exp.Tab3LongShort(o)
		if err != nil {
			b.Fatal(err)
		}
		hr, err := exp.Tab3HeteroRTT(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range append(ls, hr...) {
			b.Logf("%-11s %-10s %7.1f Mbps  delayRatio %.2f  (%d flows)",
				r.Experiment, r.Class, r.ThrMbps, r.DelayRatio, r.Flows)
		}
		report := func(name string, a, bb exp.Tab3Row) {
			ratio := a.ThrMbps / bb.ThrMbps
			if ratio < 1 {
				ratio = 1 / ratio
			}
			b.ReportMetric(ratio, name)
		}
		report("long/short-ratio", ls[1], ls[2])
		report("rtt-class-ratio", hr[0], hr[1])
	}
}

// BenchmarkFig01AstraeaGeneralization reproduces Fig. 1: Astraea's fairness
// inside its training region vs. its failure on an unseen 350 Mbps link.
func BenchmarkFig01AstraeaGeneralization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig1AstraeaGeneralization(exp.Fig1Options{
			Stagger: 20 * time.Second, Lifetime: 60 * time.Second, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.InDomainJain, "jain-100Mbps")
		b.ReportMetric(res.OutOfDomainJain, "jain-350Mbps")
		if res.OutOfDomainJain >= res.InDomainJain {
			b.Fatalf("generalization failure did not reproduce: in=%.3f out=%.3f",
				res.InDomainJain, res.OutOfDomainJain)
		}
	}
}

// BenchmarkFig04SignalPhases reproduces Fig. 4: the three-phase response of
// throughput/RTT/loss to a rising sending rate.
func BenchmarkFig04SignalPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig4SignalPhases(exp.Fig4Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("rate %6.1f Mbps  thr %6.1f Mbps  rtt %5.1f ms  loss %.3f",
				r.SendRateBps/1e6, r.ThroughputBps/1e6, float64(r.AvgRTT)/1e6, r.LossRate)
		}
		b.ReportMetric(float64(len(rows)), "ramp-points")
	}
}

// BenchmarkFig05OccupancyProbe reproduces Fig. 5: smaller flows gain more
// throughput from the same +10% probe, and Eq. 5 recovers the share.
func BenchmarkFig05OccupancyProbe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5OccupancyProbe(exp.Fig5Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		var maxErr float64
		for _, r := range rows {
			b.Logf("share %.2f  thrChange %.4f  Eq.5 estimate %.2f", r.Share, r.ThrChangeRatio, r.EstimatedShare)
			if e := abs(r.EstimatedShare - r.Share); e > maxErr {
				maxErr = e
			}
		}
		b.ReportMetric(maxErr, "max-share-est-error")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFig06JainIndex reproduces Fig. 6: the average Jain index of
// three homogeneous flows per scheme across random environments. The paper
// reports Jury highest at 0.94.
func BenchmarkFig06JainIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig6JainIndex(exp.Fig6Options{
			Runs: 4, Stagger: 20 * time.Second, Lifetime: 60 * time.Second,
			MaxRate: 250e6, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		var jury, best float64
		for _, r := range rows {
			b.Logf("%-8s meanJain %.3f  [p5 %.3f, p95 %.3f] over %d runs", r.Scheme, r.MeanJain, r.P5, r.P95, r.Runs)
			if r.Scheme == "jury" {
				jury = r.MeanJain
			}
			if r.MeanJain > best {
				best = r.MeanJain
			}
			b.ReportMetric(r.MeanJain, "jain-"+r.Scheme)
		}
		if jury < best-1e-9 {
			b.Logf("note: jury %.3f not strictly highest (best %.3f) at this reduced scale", jury, best)
		}
	}
}

// BenchmarkFig07JuryConvergence reproduces Fig. 7(a-d): Jury converging
// across bandwidths, RTTs, and loss rates.
func BenchmarkFig07JuryConvergence(b *testing.B) {
	o := exp.Fig7Options{Stagger: 20 * time.Second, Lifetime: 60 * time.Second, Seed: benchSeed}
	for i := 0; i < b.N; i++ {
		for _, p := range exp.Fig7Panels()[:4] {
			res, err := exp.Fig7Convergence(p, o)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("panel %s (%s, %.0f Mbps, %v RTT, %.1f%% loss): Jain %.3f, utilization %.3f",
				p.ID, p.Scheme, p.Rate/1e6, p.RTT, p.Loss*100, res.Jain, res.Utilization)
			b.ReportMetric(res.Jain, "jain-7"+p.ID)
			b.ReportMetric(res.Utilization, "util-7"+p.ID)
			if res.Jain < 0.6 {
				b.Fatalf("panel %s Jain %.3f — Jury convergence broke", p.ID, res.Jain)
			}
		}
	}
}

// BenchmarkFig07BaselineFailures reproduces Fig. 7(e-h): the baselines'
// published failure modes under the same conditions Jury handles.
func BenchmarkFig07BaselineFailures(b *testing.B) {
	o := exp.Fig7Options{Stagger: 20 * time.Second, Lifetime: 60 * time.Second, Seed: benchSeed}
	for i := 0; i < b.N; i++ {
		for _, p := range exp.Fig7Panels()[4:] {
			res, err := exp.Fig7Convergence(p, o)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("panel %s (%s): Jain %.3f, utilization %.3f", p.ID, p.Scheme, res.Jain, res.Utilization)
			b.ReportMetric(res.Jain, "jain-7"+p.ID)
			b.ReportMetric(res.Utilization, "util-7"+p.ID)
		}
	}
}

// BenchmarkFig08RTTFairness reproduces Fig. 8: five Jury flows with base
// RTTs from 70 to 210 ms share a 100 Mbps link near-equally.
func BenchmarkFig08RTTFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig8RTTFairness(exp.Fig8Options{
			Stagger: 20 * time.Second, Lifetime: 100 * time.Second, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, s := range res.LateShares {
			b.Logf("flow %d: %.1f Mbps (avg RTT %.0f ms)", j, s/1e6, res.AvgRTTms[j])
		}
		b.ReportMetric(res.LateJain, "late-jain")
		if res.LateJain < 0.8 {
			b.Fatalf("RTT fairness broke: late Jain %.3f", res.LateJain)
		}
	}
}

// BenchmarkFig09Friendliness reproduces Fig. 9: each scheme's throughput
// ratio against a competing Cubic flow across base RTTs.
func BenchmarkFig09Friendliness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig9Friendliness(exp.Fig9Options{
			RTTs:     []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond},
			Lifetime: 60 * time.Second,
			Seed:     benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, r := range rows {
			b.Logf("%-8s rtt %v: thr/cubic %.3f", r.Scheme, r.RTT, r.Ratio)
			sums[r.Scheme] += r.Ratio
			counts[r.Scheme]++
		}
		for s, sum := range sums {
			b.ReportMetric(sum/float64(counts[s]), "ratio-"+s)
		}
	}
}

// BenchmarkFig10PerformanceSweeps reproduces Fig. 10: single-flow link
// utilization and queuing delay across bandwidth, delay, loss, and buffer
// sweeps for every scheme.
func BenchmarkFig10PerformanceSweeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig10PerformanceSweeps(exp.Fig10Options{
			Lifetime:   30 * time.Second,
			Losses:     []float64{0, 0.005, 0.015},
			BufferBDPs: []float64{0.5, 2, 8, 16},
			Seed:       benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Aggregate the figure's headline: mean utilization per scheme over
		// all sweep points (Jury's consistency claim), plus Jury's worst.
		util := map[string][]float64{}
		for _, r := range rows {
			b.Logf("%-8s %-9s x=%-6.3g util %.3f  queue %.1f ms", r.Scheme, r.Param, r.X, r.Utilization, r.QueuingDelay)
			util[r.Scheme] = append(util[r.Scheme], r.Utilization)
		}
		for s, us := range util {
			b.ReportMetric(metrics.Mean(us), "util-"+s)
		}
		if worst := metrics.Percentile(util["jury"], 0); worst < 0.5 {
			b.Logf("note: jury worst-case utilization %.3f", worst)
		}
	}
}

// BenchmarkFig11Satellite reproduces Fig. 11(a): the 42 Mbps / 800 ms RTT /
// 0.74% loss satellite link.
func BenchmarkFig11Satellite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig11Satellite(exp.Fig11Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%-8s %6.1f Mbps  normDelay %.3f", r.Scheme, r.ThroughputBps/1e6, r.NormalizedDelay)
			if r.Scheme == "jury" {
				b.ReportMetric(r.ThroughputBps/42e6, "jury-utilization")
				b.ReportMetric(r.NormalizedDelay, "jury-norm-delay")
			}
		}
	}
}

// BenchmarkFig11HighSpeed reproduces Fig. 11(b): the 10 Gbps / 15 ms link.
func BenchmarkFig11HighSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig11HighSpeed(exp.Fig11Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%-8s %7.2f Gbps  normDelay %.3f", r.Scheme, r.ThroughputBps/1e9, r.NormalizedDelay)
			if r.Scheme == "jury" {
				b.ReportMetric(r.ThroughputBps/10e9, "jury-utilization")
			}
		}
	}
}

// BenchmarkFig12LTEResponsiveness reproduces Fig. 12: tracking a
// fluctuating cellular link.
func BenchmarkFig12LTEResponsiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig12LTEResponsiveness(exp.Fig12Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []string{"jury", "astraea", "orca", "aurora", "vivace"} {
			tr := exp.Fig12Tracking(rows, s)
			b.Logf("%-8s capacity tracking %.3f", s, tr)
			b.ReportMetric(tr, "tracking-"+s)
		}
	}
}

// BenchmarkFig13RealWorldWAN reproduces Fig. 13 on the emulated WAN
// profiles (see DESIGN.md substitutions).
func BenchmarkFig13RealWorldWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, intra := range []bool{true, false} {
			label := "intra"
			if !intra {
				label = "inter"
			}
			rows, err := exp.Fig13WAN(intra, exp.Fig13Options{Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				b.Logf("%s %-8s %7.1f Mbps  normDelay %.3f", label, r.Scheme, r.ThroughputBps/1e6, r.NormalizedDelay)
				if r.Scheme == "jury" {
					b.ReportMetric(r.ThroughputBps/1e6, label+"-jury-mbps")
				}
			}
		}
	}
}

// BenchmarkFig14CPUOverhead reproduces Fig. 14: control-path cost per
// scheme. Absolute values reflect this repository's pure-Go stacks; the
// shape (classic ≪ DRL; Jury's post-processing free) is the claim.
func BenchmarkFig14CPUOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig14CPUOverhead(exp.Fig14Options{Seed: benchSeed, Iters: 5000})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%s", r.String())
			b.ReportMetric(r.CPUPercent, "cpu%-"+r.Scheme)
		}
	}
}

// BenchmarkAblations runs the design-choice ablations DESIGN.md calls out:
// removing the post-processing phase (δ=0), the exploration-action rule, or
// the occupancy signal filter, each on the 3-flow unseen-environment
// scenario. The paper's argument predicts the no-post-processing variant
// loses the fairness guarantee.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunAblation(exp.AblationOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		var full, noPP float64
		for _, r := range rows {
			b.Logf("%-22s jain %.3f  util %.3f  queue %.1f ms", r.Variant, r.Jain, r.Utilization, r.QueueMS)
			b.ReportMetric(r.Jain, "jain-"+r.Variant)
			switch r.Variant {
			case "jury-full":
				full = r.Jain
			case "no-post-processing":
				noPP = r.Jain
			}
		}
		if noPP >= full {
			b.Logf("note: post-processing ablation did not reduce fairness at this scale (full %.3f, ablated %.3f)", full, noPP)
		}
	}
}

// BenchmarkMultiBottleneck covers the §5.1 multi-bottleneck fairness claim
// on a parking-lot topology: a flow crossing two bottlenecks shares each
// link fairly with its local cross flow.
func BenchmarkMultiBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunMultiBottleneck(exp.MultiBottleneckOptions{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("long %.1f Mbps, cross1 %.1f, cross2 %.1f (link jains %.3f / %.3f)",
			res.LongMbps, res.Cross1Mbps, res.Cross2Mbps, res.Link1Jain, res.Link2Jain)
		b.ReportMetric(res.Link1Jain, "link1-jain")
		b.ReportMetric(res.Link2Jain, "link2-jain")
	}
}
