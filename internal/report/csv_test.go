package report

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

func TestWriteFlowSeriesCSV(t *testing.T) {
	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 10e6, Delay: 10 * time.Millisecond, BufferBytes: 100_000})
	n.AddFlow(netsim.FlowConfig{Name: "a", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return cc.NewManual(5e6) }})
	n.AddFlow(netsim.FlowConfig{Name: "b", Path: []*netsim.Link{l},
		CC: func() cc.Algorithm { return cc.NewManual(3e6) }})
	n.Run(5 * time.Second)

	var buf bytes.Buffer
	if err := WriteFlowSeriesCSV(&buf, n.Flows()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output not parseable CSV: %v", err)
	}
	if len(recs) < 20 {
		t.Fatalf("only %d records", len(recs))
	}
	if recs[0][0] != "flow" || len(recs[0]) != 8 {
		t.Fatalf("header %v", recs[0])
	}
	seen := map[string]bool{}
	for _, r := range recs[1:] {
		seen[r[0]] = true
		if _, err := strconv.ParseFloat(r[2], 64); err != nil {
			t.Fatalf("non-numeric throughput %q", r[2])
		}
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("flows missing from CSV: %v", seen)
	}
}
