package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

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
		chart, err = figureChart(*fig, *seed, *full)
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
	flows := plot.ByName{}
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
		flows.Add(tl.Flow, float64(tl.VTNS)/1e9, tl.ThrBps/1e6)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("%s: no sim sample events (was the trace captured with -trace-out?)", path)
	}
	return &plot.Chart{Title: "telemetry trace: " + path, XLabel: "virtual time (s)", YLabel: "throughput (Mbps)",
		Series: flows.Series()}, nil
}

// figureChart runs the registry figure that draws plot id and returns that
// chart.
func figureChart(id string, seed uint64, full bool) (*plot.Chart, error) {
	for _, f := range exp.Figures {
		for i, p := range f.Plots {
			if p == id {
				_, charts, err := f.Run(full, seed)
				if err != nil {
					return nil, err
				}
				return charts[i], nil
			}
		}
	}
	return nil, usageError(fmt.Sprintf("unknown figure %q", id))
}
