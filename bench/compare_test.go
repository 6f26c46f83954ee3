package main

import (
	"io"
	"strings"
	"testing"
)

// reportWith builds a one-workload report from metric values.
func reportWith(workload, fp string, vals map[string]float64) *report {
	wr := &workloadReport{Fingerprint: fp, EndToEnd: map[string]sample{}}
	for k, v := range vals {
		d, _ := lookupDef(k)
		wr.EndToEnd[k] = sample{Value: v, Unit: d.Unit, N: 1}
	}
	return &report{Workloads: map[string]*workloadReport{workload: wr}}
}

func TestCompareGates(t *testing.T) {
	figs := map[string]float64{"wall_s": 10, "setup_s": 0.003, "jain_jury_min": 0.903, "fail_ratio": 0}
	with := func(base map[string]float64, k string, v float64) map[string]float64 {
		out := map[string]float64{}
		for bk, bv := range base {
			out[bk] = bv
		}
		out[k] = v
		return out
	}
	serve := map[string]float64{"wall_s": 4, "setup_s": 2.4, "decisions_per_s": 1600, "decision_p50_us": 1200, "decision_p99_us": 1400, "fail_ratio": 0}
	for _, tc := range []struct {
		name     string
		workload string
		a, b     map[string]float64
		fpB      string
		want     int
	}{
		{"identical", wlPaperFigs, figs, figs, "f", 0},
		{"faster is fine", wlPaperFigs, figs, with(figs, "wall_s", 5), "f", 0},
		{"wall within a tenth", wlPaperFigs, figs, with(figs, "wall_s", 10.9), "f", 0},
		{"wall beyond a tenth", wlPaperFigs, figs, with(figs, "wall_s", 11.1), "f", 1},
		{"setup inside its absolute slack", wlPaperFigs, figs, with(figs, "setup_s", 0.05), "f", 0},
		{"setup beyond its absolute slack", wlPaperFigs, figs, with(figs, "setup_s", 0.06), "f", 1},
		{"jain inside 0.005", wlPaperFigs, figs, with(figs, "jain_jury_min", 0.899), "f", 0},
		{"jain beyond 0.005", wlPaperFigs, figs, with(figs, "jain_jury_min", 0.897), "f", 1},
		{"any new failure", wlPaperFigs, figs, with(figs, "fail_ratio", 0.01), "f", 1},
		{"outputs differ", wlPaperFigs, figs, figs, "g", 1},
		{"throughput is higher-better", wlServeSocket, serve, with(serve, "decisions_per_s", 1400), "f", 1},
		{"throughput up is fine", wlServeSocket, serve, with(serve, "decisions_per_s", 2400), "f", 0},
		{"p99 beyond a tenth", wlServeSocket, serve, with(serve, "decision_p99_us", 1600), "f", 1},
	} {
		var out strings.Builder
		got := compare(reportWith(tc.workload, "f", tc.a), reportWith(tc.workload, tc.fpB, tc.b), &out)
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
	if got := compare(reportWith(wlPaperFigs, "f", figs), &report{Workloads: map[string]*workloadReport{}}, io.Discard); got != 1 {
		t.Errorf("workload missing from B: exit %d, want 1", got)
	}
}
