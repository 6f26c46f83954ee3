package exp

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFormattersDeterministic prints the same rows many times: map order
// must not leak into the columns of fig7a–h or the rows of fig12.
func TestFormattersDeterministic(t *testing.T) {
	flows := []string{"orca-3", "jury-0", "bbr-4", "jury-1", "astraea-2", "cubic-5"}
	var series []FlowSeriesRow
	var lte []Fig12Row
	for s := 1; s <= 3; s++ {
		at := time.Duration(s) * time.Second
		lte = append(lte, Fig12Row{T: at, Scheme: "capacity", SendRateBps: 10e6})
		for i, f := range flows {
			series = append(series, FlowSeriesRow{T: at, Flow: f, Mbps: float64(10*s + i)})
			lte = append(lte, Fig12Row{T: at, Scheme: f, SendRateBps: float64(i+1) * 1.5e6})
		}
	}
	wantSeries := formatSeries(series)
	if !strings.HasPrefix(wantSeries, "  t=   1s  astraea-2=   14.0  bbr-4=   12.0  cubic-5=   15.0  jury-0=   11.0  jury-1=   13.0  orca-3=   10.0\n") {
		t.Errorf("series columns not in name order:\n%s", wantSeries)
	}
	wantLTE := fig12Table(lte)
	if !strings.Contains(wantLTE, "astraea-2  0.750") || strings.Index(wantLTE, "astraea-2") > strings.Index(wantLTE, "orca-3") {
		t.Errorf("fig12 rows not in name order:\n%s", wantLTE)
	}
	for i := 0; i < 50; i++ {
		if got := formatSeries(series); got != wantSeries {
			t.Fatalf("formatSeries run %d:\n%s\nfirst run:\n%s", i, got, wantSeries)
		}
		if got := fig12Table(lte); got != wantLTE {
			t.Fatalf("fig12Table run %d:\n%s\nfirst run:\n%s", i, got, wantLTE)
		}
	}
}

// TestFig11HighSpeedHonoursLifetime: a caller that asks Fig. 11(b) for 60 s
// gets 60 s, not the 30 s its zero value runs.
func TestFig11HighSpeedHonoursLifetime(t *testing.T) {
	run := func(lifetime time.Duration) []Fig11Row {
		rows, err := Fig11HighSpeed(Fig11Options{Schemes: []string{"cubic"}, Lifetime: lifetime, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	zero, short, long := run(0), run(30*time.Second), run(60*time.Second)
	if !reflect.DeepEqual(zero, short) {
		t.Errorf("zero lifetime gave %+v, want the 30 s rows %+v", zero, short)
	}
	if reflect.DeepEqual(short, long) {
		t.Errorf("60 s gave the 30 s rows %+v", long)
	}
}
