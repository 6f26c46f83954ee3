package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/plot"
)

// runFairness is `jury plot fairness`: it renders a streaming fairness
// capture — the /fairness JSON page, a /fairness/stream SSE capture, or
// plain JSONL of snapshots, from a run launched with -obs — as an SVG chart
// of windowed and cumulative Jain over virtual time. See EXPERIMENTS.md
// "Live fairness observatory" for the capture recipes.
//
//	jury plot fairness -in fairness.json -out fairness.svg
func runFairness(args []string) error {
	fs := flag.NewFlagSet("jury plot fairness", flag.ExitOnError)
	var (
		in  = fs.String("in", "", "capture file: /fairness JSON, an SSE capture, or snapshot JSONL (required)")
		out = fs.String("out", "fairness.svg", "output SVG path")
	)
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		return usageError("")
	}
	chart, err := fairnessChart(*in)
	if err != nil {
		return err
	}
	return writeSVG(*out, chart)
}

// parseFairnessCapture accepts the three shapes a fairness capture comes in:
//
//   - the /fairness page: one JSON object with a "recent" array;
//   - an SSE capture of /fairness/stream: `data: {...}` frames;
//   - plain JSONL: one snapshot object per line (flight-style captures).
func parseFairnessCapture(path string) ([]obs.FairnessSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snaps []obs.FairnessSnapshot
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	lines := 0
	for sc.Scan() {
		lines++
		line := strings.TrimSpace(sc.Text())
		line = strings.TrimPrefix(line, "data:")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var snap obs.FairnessSnapshot
		onePage := lines == 1 && strings.HasPrefix(line, "{") && strings.Contains(line, `"recent"`)
		if onePage || json.Unmarshal([]byte(line), &snap) != nil {
			// A /fairness page, on one line or indented over many.
			return parseFairnessPage(path)
		}
		snaps = append(snaps, snap)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snaps, nil
}

func parseFairnessPage(path string) ([]obs.FairnessSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var page struct {
		Recent []obs.FairnessSnapshot `json:"recent"`
	}
	if err := json.Unmarshal(data, &page); err != nil {
		return nil, fmt.Errorf("%s: not a /fairness page, SSE capture, or snapshot JSONL: %w", path, err)
	}
	return page.Recent, nil
}

// fairnessChart renders windowed and cumulative Jain over virtual time.
func fairnessChart(path string) (*plot.Chart, error) {
	snaps, err := parseFairnessCapture(path)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%s: no fairness snapshots (was the run launched with -obs?)", path)
	}
	win := plot.Series{Name: "windowed Jain"}
	cum := plot.Series{Name: "cumulative Jain"}
	for _, s := range snaps {
		t := s.T.Seconds()
		win.X = append(win.X, t)
		win.Y = append(win.Y, s.WindowJain)
		cum.X = append(cum.X, t)
		cum.Y = append(cum.Y, s.CumJain)
	}
	c := &plot.Chart{
		Title:  "streaming fairness: " + path,
		XLabel: "virtual time (s)",
		YLabel: "Jain index",
		Series: []plot.Series{win, cum},
	}
	return c, nil
}
