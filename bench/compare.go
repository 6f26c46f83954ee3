package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload and gated end-to-end metric, both
// medians, how much worse B is than A, and the slack the gate allows. It
// returns the exit code: 1 if any metric is worse by more than its slack,
// a fingerprint differs, or a workload of A is missing from B.
func compareReports(pathA, pathB string, w io.Writer) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return compare(a, b, w)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compare(a, b *report, w io.Writer) int {
	bad := 0
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %10s %10s\n", "workload", "metric", "A", "B", "worse by", "allowed")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from B\n", name)
			bad++
			continue
		}
		if wa.Fingerprint != wb.Fingerprint {
			fmt.Fprintf(w, "%-13s fingerprint %s vs %s: outputs differ\n", name, wa.Fingerprint, wb.Fingerprint)
			bad++
		}
		for _, g := range gates {
			sa, okA := wa.EndToEnd[g.Metric]
			sb, okB := wb.EndToEnd[g.Metric]
			if !isEndToEnd(g.Metric, name) || (!okA && !okB) {
				continue
			}
			if okA != okB {
				fmt.Fprintf(w, "%-13s %-20s measured on one side only\n", name, g.Metric)
				bad++
				continue
			}
			worse := sb.Value - sa.Value
			if d, _ := lookupDef(g.Metric); d.Better == "higher" {
				worse = -worse
			}
			allowed := math.Max(g.Rel*math.Abs(sa.Value), g.Abs)
			verdict := ""
			if worse > allowed {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %+9.2f%% %9.2f%% %s%s\n", name, g.Metric, sa.Value, sb.Value,
				pct(worse, sa.Value), pct(allowed, sa.Value), sa.Unit, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d check(s) failed\n", bad)
		return 1
	}
	fmt.Fprintln(w, "B is within every gate of A")
	return 0
}

// pct expresses part as a percentage of |whole|; 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / math.Abs(whole)
}
