package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/exp"
	"repro/internal/plot"
)

// runPlot is `jury plot`: it regenerates the paper's figures as SVG images —
// the throughput-dynamics panels (Fig. 1, 7, 8), the signal studies (Fig. 4,
// 5), the Pareto scatters (Fig. 11, 13), and the LTE trace (Fig. 12).
//
//	jury plot -fig fig7b -out fig7b.svg
//	jury plot -fig fig12 -out fig12.svg
//
// It can also render a telemetry trace captured with any subcommand's
// -trace-out flag: the sim-domain "sample" events (one per recorded series
// point, written when each run finishes) become a per-flow
// throughput-over-virtual-time chart:
//
//	jury sim -scheme cubic,jury -trace-out run.jsonl
//	jury plot -trace run.jsonl -out run.svg
//
// `jury plot fairness` renders a streaming fairness capture (runFairness).
func runPlot(args []string) error {
	if len(args) > 0 && args[0] == "fairness" {
		return runFairness(args[1:])
	}
	fs := flag.NewFlagSet("jury plot", flag.ExitOnError)
	var (
		fig   = fs.String("fig", "", "figure id: fig1a fig1b fig4 fig5 fig7a..fig7h fig8 fig11a fig11b fig12 fig13a fig13b")
		trace = fs.String("trace", "", "plot a telemetry JSONL trace (sim sample events) instead of a figure")
		out   = fs.String("out", "", "output SVG path (default <fig>.svg or trace.svg)")
		seed  = fs.Uint64("seed", 1, "random seed")
		full  = fs.Bool("full", false, "run at the paper's full scale")
	)
	fs.Parse(args)
	if *fig == "" && *trace == "" {
		fs.Usage()
		return usageError("")
	}
	var chart *plot.Chart
	var err error
	if *trace != "" {
		if *out == "" {
			*out = "trace.svg"
		}
		chart, err = traceChart(*trace)
	} else {
		if *out == "" {
			*out = *fig + ".svg"
		}
		chart, err = build(*fig, *seed, *full)
	}
	if err != nil {
		return err
	}
	return writeSVG(*out, chart)
}

// writeSVG renders chart to path and reports where it went.
func writeSVG(path string, chart *plot.Chart) error {
	if err := os.WriteFile(path, []byte(chart.SVG()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// traceLine is the subset of a telemetry JSONL line the trace plot needs
// (sim-domain "sample" events; everything else is skipped).
type traceLine struct {
	T      string  `json:"t"`
	Domain string  `json:"domain"`
	Name   string  `json:"name"`
	VTNS   int64   `json:"vt_ns"`
	Flow   string  `json:"flow"`
	ThrBps float64 `json:"thr_bps"`
}

// traceChart renders per-flow throughput over virtual time from a telemetry
// trace captured with -trace-out.
func traceChart(path string) (*plot.Chart, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	flows := byName{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var tl traceLine
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lines, err)
		}
		if tl.T != "event" || tl.Domain != "sim" || tl.Name != "sample" {
			continue
		}
		flows.add(tl.Flow, float64(tl.VTNS)/1e9, tl.ThrBps/1e6)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("%s: no sim sample events (was the trace captured with -trace-out?)", path)
	}
	return &plot.Chart{Title: "telemetry trace: " + path, XLabel: "virtual time (s)", YLabel: "throughput (Mbps)",
		Series: flows.series()}, nil
}

// byName gathers points into one series per name.
type byName map[string]*plot.Series

func (b byName) add(name string, x, y float64) {
	s := b[name]
	if s == nil {
		s = &plot.Series{Name: name}
		b[name] = s
	}
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// series returns the series in name order.
func (b byName) series() []plot.Series {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]plot.Series, len(names))
	for i, name := range names {
		out[i] = *b[name]
	}
	return out
}

// seriesChart converts flow series rows into a time/Mbps chart.
func seriesChart(title string, rows []exp.FlowSeriesRow) *plot.Chart {
	flows := byName{}
	for _, r := range rows {
		flows.add(r.Flow, r.T.Seconds(), r.Mbps)
	}
	return &plot.Chart{Title: title, XLabel: "time (s)", YLabel: "throughput (Mbps)", Series: flows.series()}
}

// paretoChart converts Fig. 11/13 rows into a scatter.
func paretoChart(title string, rows []exp.Fig11Row, unit float64, yLabel string) *plot.Chart {
	c := &plot.Chart{Title: title, XLabel: "normalized one-way delay", YLabel: yLabel}
	for _, r := range rows {
		c.Series = append(c.Series, plot.Series{
			Name:   r.Scheme,
			X:      []float64{r.NormalizedDelay},
			Y:      []float64{r.ThroughputBps / unit},
			Points: true,
		})
	}
	return c
}

func build(fig string, seed uint64, full bool) (*plot.Chart, error) {
	switch fig {
	case "fig1a", "fig1b":
		o := exp.Fig1Options{Seed: seed}
		o.Stagger, o.Lifetime = fig1Scale.at(full)
		res, err := exp.Fig1AstraeaGeneralization(o)
		if err != nil {
			return nil, err
		}
		if fig == "fig1a" {
			return seriesChart("Fig 1(a): Astraea, 100 Mbps (trained region)", res.InDomainSeries), nil
		}
		return seriesChart("Fig 1(b): Astraea, 350 Mbps (unseen)", res.OutDomainSeries), nil
	case "fig4":
		rows, err := exp.Fig4SignalPhases(exp.Fig4Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		var rate, thr, rtt, loss plot.Series
		rate.Name, thr.Name, rtt.Name, loss.Name = "send rate", "throughput", "RTT", "loss"
		// Scaled to [0,1] like the paper's Fig. 4.
		maxRTT := 0.0
		for _, r := range rows {
			if v := float64(r.AvgRTT); v > maxRTT {
				maxRTT = v
			}
		}
		for _, r := range rows {
			x := r.SendRateBps / 1e6
			rate.X = append(rate.X, x)
			rate.Y = append(rate.Y, r.SendRateBps/250e6)
			thr.X = append(thr.X, x)
			thr.Y = append(thr.Y, r.ThroughputBps/250e6)
			rtt.X = append(rtt.X, x)
			rtt.Y = append(rtt.Y, float64(r.AvgRTT)/maxRTT)
			loss.X = append(loss.X, x)
			loss.Y = append(loss.Y, r.LossRate)
		}
		return &plot.Chart{
			Title:  "Fig 4: packet statistics vs. sending rate (scaled to [0,1])",
			XLabel: "sending rate (Mbps)", YLabel: "scaled value",
			Series: []plot.Series{thr, rtt, loss},
		}, nil
	case "fig5":
		rows, err := exp.Fig5OccupancyProbe(exp.Fig5Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		var resp, est plot.Series
		resp.Name, resp.Points = "thr change (+10% probe)", true
		est.Name, est.Points = "Eq.5 estimate", true
		for _, r := range rows {
			resp.X = append(resp.X, r.Share)
			resp.Y = append(resp.Y, r.ThrChangeRatio)
			est.X = append(est.X, r.Share)
			est.Y = append(est.Y, r.EstimatedShare)
		}
		return &plot.Chart{
			Title:  "Fig 5: throughput response vs. occupancy",
			XLabel: "true share", YLabel: "ratio",
			Series: []plot.Series{resp, est},
		}, nil
	case "fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h":
		id := fig[len(fig)-1:]
		for _, p := range exp.Fig7Panels() {
			if p.ID == id {
				o := exp.Fig7Options{Seed: seed}
				o.Stagger, o.Lifetime = fig7Scale.at(full)
				res, err := exp.Fig7Convergence(p, o)
				if err != nil {
					return nil, err
				}
				title := fmt.Sprintf("Fig 7(%s): %s, %.0f Mbps, %v RTT, %.1f%% loss (Jain %.3f)",
					id, p.Scheme, p.Rate/1e6, p.RTT, p.Loss*100, res.Jain)
				return seriesChart(title, res.Series), nil
			}
		}
		return nil, fmt.Errorf("unknown panel %s", fig)
	case "fig8":
		o := exp.Fig8Options{Seed: seed}
		o.Stagger, o.Lifetime = fig8Scale.at(full)
		res, err := exp.Fig8RTTFairness(o)
		if err != nil {
			return nil, err
		}
		return seriesChart(fmt.Sprintf("Fig 8: RTT fairness (late Jain %.3f)", res.LateJain), res.Series), nil
	case "fig11a":
		rows, err := exp.Fig11Satellite(exp.Fig11Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		return paretoChart("Fig 11(a): satellite (42 Mbps / 800 ms / 0.74% loss)", rows, 1e6, "throughput (Mbps)"), nil
	case "fig11b":
		rows, err := exp.Fig11HighSpeed(exp.Fig11Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		return paretoChart("Fig 11(b): 10 Gbps / 15 ms", rows, 1e9, "throughput (Gbps)"), nil
	case "fig12":
		rows, err := exp.Fig12LTEResponsiveness(exp.Fig12Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		schemes := byName{}
		for _, r := range rows {
			schemes.add(r.Scheme, r.T.Seconds(), r.SendRateBps/1e6)
		}
		return &plot.Chart{Title: "Fig 12: LTE responsiveness", XLabel: "time (s)", YLabel: "sending rate (Mbps)",
			Series: schemes.series()}, nil
	case "fig13a", "fig13b":
		rows, err := exp.Fig13WAN(fig == "fig13a", exp.Fig13Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		name := "intra-continental"
		if fig == "fig13b" {
			name = "inter-continental"
		}
		return paretoChart("Fig 13: emulated "+name+" WAN", rows, 1e6, "throughput (Mbps)"), nil
	default:
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
}
