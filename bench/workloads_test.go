package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/exp"
)

func smokeCtx(seed uint64) *ctx { return &ctx{seed: seed, smoke: true, reps: 2} }

// TestSmokeEveryWorkload runs both passes of all four workloads at smoke
// size: no operation may fail, reps must agree, another seed must give other
// outputs, and the metric names that come out must be exactly the ones the
// tables (and so BENCHMARK.json) list.
func TestSmokeEveryWorkload(t *testing.T) {
	emitted := map[string]bool{}
	for _, w := range workloads {
		res, err := runUntraced(w, smokeCtx(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 || res.Reps != 2 {
			t.Errorf("%s untraced: %d of %d failed over %d reps: %v", w.name, res.Failed, res.Attempted, res.Reps, res.Failures)
		}
		for _, d := range endToEnd {
			if s, ok := res.Metrics[d.Name]; !ok || !(s.Value > 0) || s.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.Name, s)
			}
		}
		for _, g := range gates {
			if _, ok := res.Metrics[g.Metric]; isEndToEnd(g.Metric, w.name) && !ok {
				t.Errorf("%s: gated metric %s not measured", w.name, g.Metric)
			}
		}

		// The mesh's cubic flows draw no randomness, so its outputs are the
		// same at every seed; the other three must follow the seed.
		if w.name != wlMesh100k {
			other, err := w.rep(smokeCtx(2), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Fingerprint; got == other.fp.String() {
				t.Errorf("%s: seeds 1 and 2 share fingerprint %s", w.name, got)
			}
		}

		tres, _, err := runTraced(w, smokeCtx(1))
		if err != nil {
			t.Fatal(err)
		}
		if tres.Failed != 0 {
			t.Errorf("%s traced: %d of %d failed: %v", w.name, tres.Failed, tres.Attempted, tres.Failures)
		}
		if tres.Fingerprint != res.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s", w.name, tres.Fingerprint, res.Fingerprint)
		}
		for name := range tres.Metrics {
			if _, ok := lookupDef(name); !ok {
				t.Errorf("%s emits %s, which no table lists", w.name, name)
			}
			emitted[name] = true
		}
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload measures per-layer metric %s", d.Name)
		}
	}
}

// TestShimsAreTransparent: the Fig. 7b probe with delegating controller and
// policy shims, under the invariant checker, must be the very same run as
// the unshimmed scenario.
func TestShimsAreTransparent(t *testing.T) {
	c := smokeCtx(3)
	plain, err := exp.Run(fig7bScenario(c, nil, true))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p := &shimProbe{tr: tr}
	p.root = tr.begin("probe", 0)
	shimmed, err := exp.Run(fig7bScenario(c, p.juryFactory(), true))
	tr.end(p.root)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest == 0 || shimmed.Digest != plain.Digest {
		t.Errorf("digest %016x with shims, %016x without", shimmed.Digest, plain.Digest)
	}
	if p.acks == 0 || p.intervals == 0 || p.decides == 0 {
		t.Errorf("shims saw %d acks, %d intervals, %d decides", p.acks, p.intervals, p.decides)
	}
	st := selfTimes(tr.spans)
	if st["cc.on_ack"].Count != int(p.acks/64) || st["core.on_interval"].Count != int(p.intervals/64) {
		t.Errorf("timed %d of %d acks and %d of %d intervals, want one in 64",
			st["cc.on_ack"].Count, p.acks, st["core.on_interval"].Count, p.intervals)
	}
}

// TestNamesMatchBenchmarkJSON pins BENCHMARK.json to the tables in
// metrics.go: a metric or workload renamed on one side only is drift.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, got, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %v\n code %v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %v\n code %v", file.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, g := range gates {
		if !seen[g.Metric] {
			t.Errorf("gate on %s, which no table lists", g.Metric)
		}
	}
}
