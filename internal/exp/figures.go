package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/plot"
)

// Figure is one id of the paper's evaluation: `jury exp -exp <ID>` prints
// what Run renders as text and `jury plot -fig <id>` draws the chart Run
// returns at that id's index in Plots.
type Figure struct {
	ID    string
	Title string   // the `jury exp -list` line
	Plots []string // `jury plot -fig` ids, one per chart Run returns
	// Run runs the figure at seed, at the reduced scale `jury exp` defaults
	// to or, with full, at the paper's. The reduced scale is every options
	// type's zero value, so an entry writes out only its -full options (see
	// DESIGN.md "Figures").
	Run func(full bool, seed uint64) (text string, charts []*plot.Chart, err error)
}

// figure makes a registry entry from a run and the renderer of its result.
func figure[R any](id, title string, plots []string, run func(full bool, seed uint64) (R, error), show func(R) (string, []*plot.Chart)) Figure {
	return Figure{ID: id, Title: title, Plots: plots, Run: func(full bool, seed uint64) (string, []*plot.Chart, error) {
		res, err := run(full, seed)
		if err != nil {
			return "", nil, err
		}
		text, charts := show(res)
		return text, charts, nil
	}}
}

// Figures is every experiment `jury exp` runs, in `-list` order.
var Figures = []Figure{
	staticTable("tab1", "Table 1: training environment ranges", "Table 1 — DRL training environment:", Tab1Rows),
	staticTable("tab2", "Table 2: training hyperparameters", "Table 2 — training hyperparameters:", Tab2Rows),
	figure("tab3", "Table 3: long/short flows and heterogeneous RTTs at scale", nil,
		func(full bool, seed uint64) ([]Tab3Row, error) {
			o := Tab3Options{Seed: seed}
			if full {
				o.Repeats = 20
			}
			rows, err := Tab3LongShort(o)
			if err != nil {
				return nil, err
			}
			rows2, err := Tab3HeteroRTT(o)
			return append(rows, rows2...), err
		},
		func(rows []Tab3Row) (string, []*plot.Chart) {
			var table [][]string
			for _, r := range rows {
				table = append(table, []string{r.Experiment, r.Class,
					fmt.Sprintf("%.1f", r.ThrMbps), fmt.Sprintf("%.2f", r.DelayRatio), fmt.Sprint(r.Flows)})
			}
			return FormatTable([]string{"experiment", "class", "thr(Mbps)", "delayRatio", "flows"}, table), nil
		}),
	figure("fig1", "Fig. 1: Astraea fairness fails outside its training region", []string{"fig1a", "fig1b"},
		func(full bool, seed uint64) (*Fig1Result, error) {
			o := Fig1Options{Seed: seed}
			if full {
				o.Stagger, o.Lifetime = 60*time.Second, 180*time.Second
			}
			return Fig1AstraeaGeneralization(o)
		},
		func(res *Fig1Result) (string, []*plot.Chart) {
			text := fmt.Sprintf("Astraea time-averaged Jain index:\n  in training region  (100 Mbps): %.3f\n  unseen environment  (350 Mbps): %.3f\n",
				res.InDomainJain, res.OutOfDomainJain)
			return text, []*plot.Chart{
				seriesChart("Fig 1(a): Astraea, 100 Mbps (trained region)", res.InDomainSeries),
				seriesChart("Fig 1(b): Astraea, 350 Mbps (unseen)", res.OutDomainSeries),
			}
		}),
	figure("fig4", "Fig. 4: signal phases vs. increasing sending rate", []string{"fig4"},
		func(_ bool, seed uint64) ([]Fig4Row, error) { return Fig4SignalPhases(seed) },
		showFig4),
	figure("fig5", "Fig. 5: throughput response to a +10% probe vs. occupancy", []string{"fig5"},
		func(_ bool, seed uint64) ([]Fig5Row, error) { return Fig5OccupancyProbe(seed) },
		showFig5),
	figure("fig6", "Fig. 6: average Jain index across random environments", nil,
		func(full bool, seed uint64) ([]Fig6Row, error) {
			o := Fig6Options{Seed: seed}
			if full {
				o.Runs, o.Stagger, o.Lifetime = 60, 60*time.Second, 180*time.Second
			}
			return Fig6JainIndex(o)
		},
		func(rows []Fig6Row) (string, []*plot.Chart) {
			var table [][]string
			for _, r := range rows {
				table = append(table, []string{r.Scheme,
					fmt.Sprintf("%.3f", r.MeanJain), fmt.Sprintf("%.3f", r.P5), fmt.Sprintf("%.3f", r.P95),
					fmt.Sprint(r.Runs)})
			}
			return FormatTable([]string{"scheme", "meanJain", "p5", "p95", "runs"}, table), nil
		}),
	figure("fig7", "Fig. 7: all eight convergence panels (parallel)", nil,
		func(full bool, seed uint64) ([]*Fig7Result, error) { return Fig7AllPanels(fig7Options(full, seed)) },
		func(results []*Fig7Result) (string, []*plot.Chart) {
			var b strings.Builder
			for _, res := range results {
				b.WriteString(fig7Line(res))
			}
			return b.String(), nil
		}),
	fig7Panel("a", "Fig. 7(a): 3 Jury flows, 50 Mbps / 30 ms"),
	fig7Panel("b", "Fig. 7(b): 3 Jury flows, 350 Mbps / 30 ms"),
	fig7Panel("c", "Fig. 7(c): 3 Jury flows, 350 Mbps / 150 ms"),
	fig7Panel("d", "Fig. 7(d): 3 Jury flows, 350 Mbps / 150 ms / 0.2% loss"),
	fig7Panel("e", "Fig. 7(e): Astraea, 350 Mbps / 30 ms"),
	fig7Panel("f", "Fig. 7(f): Vivace, 350 Mbps / 150 ms"),
	fig7Panel("g", "Fig. 7(g): BBR, 350 Mbps / 150 ms / 0.2% loss"),
	fig7Panel("h", "Fig. 7(h): Orca, 350 Mbps / 150 ms / 0.2% loss"),
	figure("fig8", "Fig. 8: RTT fairness (5 Jury flows, 70-210 ms)", []string{"fig8"},
		func(full bool, seed uint64) (*Fig8Result, error) {
			o := Fig8Options{Seed: seed}
			if full {
				o.Stagger, o.Lifetime = 60*time.Second, 300*time.Second
			}
			return Fig8RTTFairness(o)
		},
		func(res *Fig8Result) (string, []*plot.Chart) {
			var b strings.Builder
			b.WriteString("late shares (Mbps):")
			for _, s := range res.LateShares {
				fmt.Fprintf(&b, " %.1f", s/1e6)
			}
			fmt.Fprintf(&b, "\nlate Jain: %.3f\navg RTTs (ms):", res.LateJain)
			for _, r := range res.AvgRTTms {
				fmt.Fprintf(&b, " %.0f", r)
			}
			b.WriteByte('\n')
			return b.String(), []*plot.Chart{seriesChart(fmt.Sprintf("Fig 8: RTT fairness (late Jain %.3f)", res.LateJain), res.Series)}
		}),
	figure("fig9", "Fig. 9: friendliness vs. Cubic across RTTs", nil,
		func(full bool, seed uint64) ([]Fig9Row, error) {
			o := Fig9Options{Seed: seed}
			if full {
				o.Lifetime = 120 * time.Second
				o.RTTs = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond,
					200 * time.Millisecond, 250 * time.Millisecond, 300 * time.Millisecond}
			}
			return Fig9Friendliness(o)
		},
		func(rows []Fig9Row) (string, []*plot.Chart) {
			var table [][]string
			for _, r := range rows {
				table = append(table, []string{r.Scheme, r.RTT.String(), fmt.Sprintf("%.3f", r.Ratio)})
			}
			return FormatTable([]string{"scheme", "rtt", "thr/cubic"}, table), nil
		}),
	figure("fig10", "Fig. 10: utilization and queuing-delay sweeps", nil,
		func(full bool, seed uint64) ([]Fig10Row, error) {
			o := Fig10Options{Seed: seed}
			if full {
				o.Lifetime = 120 * time.Second
				o.Bandwidths = []float64{10e6, 50e6, 100e6, 200e6, 300e6, 400e6, 500e6, 600e6}
				o.Delays = []time.Duration{15 * time.Millisecond, 30 * time.Millisecond, 45 * time.Millisecond,
					60 * time.Millisecond, 80 * time.Millisecond, 100 * time.Millisecond, 120 * time.Millisecond}
			}
			return Fig10PerformanceSweeps(o)
		},
		func(rows []Fig10Row) (string, []*plot.Chart) {
			var table [][]string
			for _, r := range rows {
				table = append(table, []string{r.Scheme, r.Param, fmt.Sprintf("%.3g", r.X),
					fmt.Sprintf("%.3f", r.Utilization), fmt.Sprintf("%.1f", r.QueuingDelay)})
			}
			return FormatTable([]string{"scheme", "param", "x", "utilization", "queue(ms)"}, table), nil
		}),
	pareto("fig11a", "Fig. 11(a): satellite link", "Fig 11(a): satellite (42 Mbps / 800 ms / 0.74% loss)", 1e6, "throughput (Mbps)", Fig11Satellite),
	pareto("fig11b", "Fig. 11(b): 10 Gbps link", "Fig 11(b): 10 Gbps / 15 ms", 1e9, "throughput (Gbps)", Fig11HighSpeed),
	figure("fig12", "Fig. 12: LTE responsiveness", []string{"fig12"},
		func(_ bool, seed uint64) ([]Fig12Row, error) { return Fig12LTEResponsiveness(seed) },
		func(rows []Fig12Row) (string, []*plot.Chart) {
			schemes := plot.ByName{}
			for _, r := range rows {
				schemes.Add(r.Scheme, r.T.Seconds(), r.SendRateBps/1e6)
			}
			return fig12Table(rows), []*plot.Chart{{Title: "Fig 12: LTE responsiveness", XLabel: "time (s)",
				YLabel: "sending rate (Mbps)", Series: schemes.Series()}}
		}),
	pareto("fig13a", "Fig. 13(a): intra-continental emulated WAN", "Fig 13: emulated intra-continental WAN", 1e6, "throughput (Mbps)",
		func(o Fig11Options) ([]Fig11Row, error) { return fig13WAN(true, o) }),
	pareto("fig13b", "Fig. 13(b): inter-continental emulated WAN", "Fig 13: emulated inter-continental WAN", 1e6, "throughput (Mbps)",
		func(o Fig11Options) ([]Fig11Row, error) { return fig13WAN(false, o) }),
	figure("fig14", "Fig. 14: CPU overhead per scheme", nil,
		func(_ bool, seed uint64) ([]Fig14Row, error) { return Fig14CPUOverhead(Fig14Options{Seed: seed}) },
		func(rows []Fig14Row) (string, []*plot.Chart) {
			var b strings.Builder
			for _, r := range rows {
				fmt.Fprintf(&b, "  %s\n", strings.TrimSpace(r.String()))
			}
			return b.String(), nil
		}),
	figure("ablation", "Ablations: post-processing / exploration / filtering removed", nil,
		func(full bool, seed uint64) ([]AblationRow, error) {
			o := AblationOptions{Seed: seed}
			if full {
				o.Stagger, o.Lifetime = 60*time.Second, 180*time.Second
			}
			return RunAblation(o)
		},
		func(rows []AblationRow) (string, []*plot.Chart) {
			var table [][]string
			for _, r := range rows {
				table = append(table, []string{r.Variant, fmt.Sprintf("%.3f", r.Jain),
					fmt.Sprintf("%.3f", r.Utilization), fmt.Sprintf("%.1f", r.QueueMS)})
			}
			return FormatTable([]string{"variant", "jain", "utilization", "queue(ms)"}, table), nil
		}),
	figure("multibtl", "Multi-bottleneck (parking lot) fairness (§5.1)", nil,
		func(_ bool, seed uint64) (*MultiBottleneckResult, error) {
			return RunMultiBottleneck(MultiBottleneckOptions{Seed: seed})
		},
		func(res *MultiBottleneckResult) (string, []*plot.Chart) {
			return fmt.Sprintf("long (both links): %.1f Mbps\ncross link1: %.1f Mbps (Jain %.3f)\ncross link2: %.1f Mbps (Jain %.3f)\n",
				res.LongMbps, res.Cross1Mbps, res.Link1Jain, res.Cross2Mbps, res.Link2Jain), nil
		}),
}

// staticTable is a table the paper states rather than measures.
func staticTable(id, title, heading string, rows func() []string) Figure {
	return figure(id, title, nil,
		func(bool, uint64) ([]string, error) { return rows(), nil },
		func(rows []string) (string, []*plot.Chart) {
			var b strings.Builder
			b.WriteString(heading + "\n")
			for _, r := range rows {
				b.WriteString("  " + r + "\n")
			}
			return b.String(), nil
		})
}

// fig7Panel is one panel of Fig. 7 run alone, printed with its series.
func fig7Panel(id, title string) Figure {
	var p Fig7Panel
	for _, cand := range Fig7Panels() {
		if cand.ID == id {
			p = cand
		}
	}
	return figure("fig7"+id, title, []string{"fig7" + id},
		func(full bool, seed uint64) (*Fig7Result, error) {
			res, err := runFig7([]Fig7Panel{p}, fig7Options(full, seed))
			if err != nil {
				return nil, err
			}
			return res[0], nil
		},
		func(res *Fig7Result) (string, []*plot.Chart) {
			title := fmt.Sprintf("Fig 7(%s): %s, %.0f Mbps, %v RTT, %.1f%% loss (Jain %.3f)",
				p.ID, p.Scheme, p.Rate/1e6, p.RTT, p.Loss*100, res.Jain)
			return fig7Line(res) + formatSeries(res.Series), []*plot.Chart{seriesChart(title, res.Series)}
		})
}

// fig7Options is the scale of `jury exp -exp fig7` and of each panel run
// alone.
func fig7Options(full bool, seed uint64) Fig7Options {
	o := Fig7Options{Seed: seed}
	if full {
		o.Stagger, o.Lifetime = 60*time.Second, 180*time.Second
	}
	return o
}

// fig7Line is a panel's one-line summary.
func fig7Line(res *Fig7Result) string {
	p := res.Panel
	return fmt.Sprintf("panel %s: %s @ %s Mbps / %v RTT / %.1f%% loss — time-averaged Jain %.3f, utilization %.3f\n",
		p.ID, p.Scheme, FmtMbps(p.Rate), p.RTT, p.Loss*100, res.Jain, res.Utilization)
}

// pareto is a Fig. 11/13 throughput/delay figure run at its options' zero
// value, which is its only scale, and drawn as a scatter in yUnit.
func pareto(id, title, chartTitle string, yUnit float64, yLabel string, run func(Fig11Options) ([]Fig11Row, error)) Figure {
	return figure(id, title, []string{id},
		func(_ bool, seed uint64) ([]Fig11Row, error) { return run(Fig11Options{Seed: seed}) },
		func(rows []Fig11Row) (string, []*plot.Chart) {
			var table [][]string
			c := &plot.Chart{Title: chartTitle, XLabel: "normalized one-way delay", YLabel: yLabel}
			for _, r := range rows {
				table = append(table, []string{r.Scheme, FmtMbps(r.ThroughputBps), fmt.Sprintf("%.3f", r.NormalizedDelay)})
				c.Series = append(c.Series, plot.Series{Name: r.Scheme, X: []float64{r.NormalizedDelay},
					Y: []float64{r.ThroughputBps / yUnit}, Points: true})
			}
			return FormatTable([]string{"scheme", "thr(Mbps)", "normDelay"}, table), []*plot.Chart{c}
		})
}

func showFig4(rows []Fig4Row) (string, []*plot.Chart) {
	var table [][]string
	thr := plot.Series{Name: "throughput"}
	rtt := plot.Series{Name: "RTT"}
	loss := plot.Series{Name: "loss"}
	// Scaled to [0,1] like the paper's Fig. 4.
	maxRTT := 0.0
	for _, r := range rows {
		maxRTT = max(maxRTT, float64(r.AvgRTT))
	}
	for _, r := range rows {
		table = append(table, []string{FmtMbps(r.SendRateBps), FmtMbps(r.ThroughputBps),
			fmt.Sprintf("%.1f", float64(r.AvgRTT)/1e6), fmt.Sprintf("%.3f", r.LossRate)})
		x := r.SendRateBps / 1e6
		thr.X, thr.Y = append(thr.X, x), append(thr.Y, r.ThroughputBps/250e6)
		rtt.X, rtt.Y = append(rtt.X, x), append(rtt.Y, float64(r.AvgRTT)/maxRTT)
		loss.X, loss.Y = append(loss.X, x), append(loss.Y, r.LossRate)
	}
	return FormatTable([]string{"rate(Mbps)", "thr(Mbps)", "rtt(ms)", "loss"}, table), []*plot.Chart{{
		Title:  "Fig 4: packet statistics vs. sending rate (scaled to [0,1])",
		XLabel: "sending rate (Mbps)", YLabel: "scaled value",
		Series: []plot.Series{thr, rtt, loss},
	}}
}

func showFig5(rows []Fig5Row) (string, []*plot.Chart) {
	var table [][]string
	resp := plot.Series{Name: "thr change (+10% probe)", Points: true}
	est := plot.Series{Name: "Eq.5 estimate", Points: true}
	for _, r := range rows {
		table = append(table, []string{fmt.Sprintf("%.2f", r.Share), fmt.Sprintf("%.4f", r.ThrChangeRatio),
			fmt.Sprintf("%.2f", r.EstimatedShare)})
		resp.X, resp.Y = append(resp.X, r.Share), append(resp.Y, r.ThrChangeRatio)
		est.X, est.Y = append(est.X, r.Share), append(est.Y, r.EstimatedShare)
	}
	return FormatTable([]string{"share", "thrChange(+10% probe)", "Eq.5 estimate"}, table), []*plot.Chart{{
		Title:  "Fig 5: throughput response vs. occupancy",
		XLabel: "true share", YLabel: "ratio",
		Series: []plot.Series{resp, est},
	}}
}

// seriesChart draws flow series rows as throughput over time.
func seriesChart(title string, rows []FlowSeriesRow) *plot.Chart {
	flows := plot.ByName{}
	for _, r := range rows {
		flows.Add(r.Flow, r.T.Seconds(), r.Mbps)
	}
	return &plot.Chart{Title: title, XLabel: "time (s)", YLabel: "throughput (Mbps)", Series: flows.Series()}
}

// formatSeries lays flow series rows out one line per sample time, with
// one column per flow in name order.
func formatSeries(series []FlowSeriesRow) string {
	byT := map[time.Duration]map[string]float64{}
	var order []time.Duration
	flows := map[string]bool{}
	var names []string
	for _, r := range series {
		if byT[r.T] == nil {
			byT[r.T] = map[string]float64{}
			order = append(order, r.T)
		}
		byT[r.T][r.Flow] = r.Mbps
		if !flows[r.Flow] {
			flows[r.Flow] = true
			names = append(names, r.Flow)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, t := range order {
		fmt.Fprintf(&b, "  t=%4ds", int(t.Seconds()))
		for _, f := range names {
			fmt.Fprintf(&b, "  %s=%7.1f", f, byT[t][f])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fig12Table is Fig. 12's capacity-tracking table, one row per scheme in
// name order.
func fig12Table(rows []Fig12Row) string {
	seen := map[string]bool{}
	var schemes []string
	for _, r := range rows {
		if r.Scheme != "capacity" && !seen[r.Scheme] {
			seen[r.Scheme] = true
			schemes = append(schemes, r.Scheme)
		}
	}
	sort.Strings(schemes)
	table := make([][]string, len(schemes))
	for i, s := range schemes {
		table[i] = []string{s, fmt.Sprintf("%.3f", Fig12Tracking(rows, s))}
	}
	return FormatTable([]string{"scheme", "capacity tracking"}, table)
}
