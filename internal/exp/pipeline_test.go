package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestTab3RowsPinned and TestAblationRowsPinned pin the exact bits of the
// Table 3 and ablation rows at a fixed seed and reduced lifetime. The values
// were recorded from the hand-rolled network builders these experiments used
// before they became Scenario builders over RunMany, so any drift in per-flow
// seeds, flow order, link parameters or measurement windows fails here.
func TestTab3RowsPinned(t *testing.T) {
	o := Tab3Options{Seed: 3, Repeats: 2, Lifetime: 5 * time.Second}
	ls, err := Tab3LongShort(o)
	if err != nil {
		t.Fatal(err)
	}
	het, err := Tab3HeteroRTT(o)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		exp, class string
		thr, ratio uint64
		flows      int
	}{
		{"long-short", "overall", 0x4022709e00267af6, 0x3ffcb6e034d494ee, 49},
		{"long-short", "long", 0x4033f75075075075, 0x3ff9ec319fb53c8e, 8},
		{"long-short", "short", 0x401c7e1ba5051910, 0x3ffd425371259fed, 41},
		{"hetero-rtt", "small-rtt", 0x4034f9936e916248, 0x3fffd1eef67bab2b, 10},
		{"hetero-rtt", "large-rtt", 0x403115b557b844b5, 0x3ff59426f2835796, 10},
	}
	got := append(ls, het...)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Experiment != w.exp || g.Class != w.class || g.Flows != w.flows ||
			math.Float64bits(g.ThrMbps) != w.thr || math.Float64bits(g.DelayRatio) != w.ratio {
			t.Errorf("row %d = {%s %s thr %016x ratio %016x flows %d}, want {%s %s thr %016x ratio %016x flows %d}",
				i, g.Experiment, g.Class, math.Float64bits(g.ThrMbps), math.Float64bits(g.DelayRatio), g.Flows,
				w.exp, w.class, w.thr, w.ratio, w.flows)
		}
	}
}

func TestAblationRowsPinned(t *testing.T) {
	rows, err := RunAblation(AblationOptions{Seed: 3, Stagger: time.Second, Lifetime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		variant           string
		jain, util, queue uint64
	}{
		{"jury-full", 0x3fe8795cfdcd9bea, 0x3fdd9d0203e63e8e, 0x4015aaa828d4a2c1},
		{"no-exploration-action", 0x3fe71f912e2924b3, 0x3fdd24e160d887ec, 0x4011e85f75172f5f},
		{"no-post-processing", 0x3feed78b6b6ec473, 0x3fc60dcb9a9da598, 0x3fb215cf9627816f},
		{"no-signal-filter", 0x3fe8306ffd037446, 0x3fdcf57f737da61e, 0x4002d90b659f54f7},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		if g.Variant != w.variant || math.Float64bits(g.Jain) != w.jain ||
			math.Float64bits(g.Utilization) != w.util || math.Float64bits(g.QueueMS) != w.queue {
			t.Errorf("row %d = {%s jain %016x util %016x queue %016x}, want {%s jain %016x util %016x queue %016x}",
				i, g.Variant, math.Float64bits(g.Jain), math.Float64bits(g.Utilization), math.Float64bits(g.QueueMS),
				w.variant, w.jain, w.util, w.queue)
		}
	}
}

func TestMultiBottleneckPinned(t *testing.T) {
	m, err := RunMultiBottleneck(MultiBottleneckOptions{Seed: 3, Lifetime: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := [3]uint64{math.Float64bits(m.LongMbps), math.Float64bits(m.Cross1Mbps), math.Float64bits(m.Cross2Mbps)}
	want := [3]uint64{0x404250fd350fd351, 0x40434fd350fd3510, 0x4043578165781658}
	if got != want {
		t.Fatalf("long/cross1/cross2 Mbps bits = %016x, want %016x", got, want)
	}
}

// TestEveryRunGoesThroughThePipeline is the pipeline's promise, entry point
// by entry point: with the checker forced on (TestMain), a live telemetry hub
// and the streaming observer set, every simulation an experiment starts must
// be checked (non-zero digest), counted (exp_runs_finished_total) and
// observed (a stream summary with snapshots) — read back from the run_finish
// trace events, which the pipeline alone emits.
func TestEveryRunGoesThroughThePipeline(t *testing.T) {
	const stagger, lifetime = 400 * time.Millisecond, 1200 * time.Millisecond
	tab3 := Tab3Options{Seed: 1, Repeats: 2, Lifetime: 2 * time.Second}
	for _, tc := range []struct {
		name string
		sims int64
		run  func() error
	}{
		{"fig7", 1, func() error {
			_, err := Fig7Convergence(Fig7Panels()[0], Fig7Options{Seed: 1, Stagger: stagger, Lifetime: lifetime})
			return err
		}},
		{"tab3-long-short", 2, func() error { _, err := Tab3LongShort(tab3); return err }},
		{"tab3-hetero-rtt", 2, func() error { _, err := Tab3HeteroRTT(tab3); return err }},
		{"ablation", int64(len(AblationVariants())), func() error {
			_, err := RunAblation(AblationOptions{Seed: 1, Stagger: stagger, Lifetime: lifetime})
			return err
		}},
		{"multibtl", 1, func() error {
			_, err := RunMultiBottleneck(MultiBottleneckOptions{Seed: 1, Lifetime: 2 * time.Second})
			return err
		}},
		{"huge", 1, func() error {
			res, err := RunHuge(HugeOptions{Segments: 4, TotalFlows: 96, Rate: 200e6, Horizon: 500 * time.Millisecond, Shards: 2, Seed: 5})
			if err == nil && (res.Digest == 0 || res.Stream == nil || res.ShardCount != 2) {
				err = fmt.Errorf("huge result not checked/observed/sharded: %+v", res)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var trace bytes.Buffer
			sink := telemetry.NewSink(&trace)
			hub := &telemetry.Hub{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer(sink)}
			Telemetry = hub
			defer func() { Telemetry = nil }()
			withObs(t, obs.Options{Window: 200 * time.Millisecond}, func(*obs.Runtime) {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			if got := hub.Registry.Counter("exp_runs_finished_total", "").Value(); got != tc.sims {
				t.Errorf("exp_runs_finished_total = %d, want %d", got, tc.sims)
			}
			if hub.Registry.Counter("sim_packets_sent_total", "").Value() == 0 {
				t.Error("telemetry's sim observer saw no packets")
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			var finished int64
			for _, line := range bytes.Split(trace.Bytes(), []byte("\n")) {
				var ev struct {
					Name      string `json:"name"`
					Digest    string `json:"digest"`
					Snapshots int64  `json:"obs_snapshots"`
				}
				if json.Unmarshal(line, &ev) != nil || ev.Name != "run_finish" {
					continue
				}
				finished++
				if ev.Digest == "" || ev.Digest == "0000000000000000" {
					t.Errorf("run finished unchecked: %s", line)
				}
				if ev.Snapshots == 0 {
					t.Errorf("run finished without a stream summary: %s", line)
				}
			}
			if finished != tc.sims {
				t.Errorf("%d run_finish events, want %d", finished, tc.sims)
			}
		})
	}
}

// poisoned is a cubic controller that panics on its 100th ACK: a failure in
// the middle of a run, with checker, telemetry and observer all attached.
type poisoned struct {
	*cubic.Cubic
	acks int
}

func (p *poisoned) OnAck(a cc.Ack) {
	if p.acks++; p.acks == 100 {
		panic("poisoned controller")
	}
	p.Cubic.OnAck(a)
}

// TestTableShapedJobPanicIsAnError: Table 3 and the ablation are RunMany
// sweeps over FlowSpec.CC scenarios, so a controller that panics mid-run in
// such a job must come back as a *PanicError — not kill the process — and
// the pipeline must have dumped the flight recorder on the way out.
func TestTableShapedJobPanicIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := Scenario{
		Name: "tab3-shaped", Rate: 200e6, OneWayDelay: 15 * time.Millisecond,
		BufferBytes: 1 << 20, Horizon: time.Second, Seed: 1,
		Flows: []FlowSpec{
			{Scheme: "jury", CC: juryAt(11)},
			{Scheme: "poison", CC: func(uint64) cc.Algorithm { return &poisoned{Cubic: cubic.New()} }},
		},
	}
	withObs(t, obs.Options{FlightDir: dir}, func(*obs.Runtime) {
		_, err := RunMany([]Scenario{s})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		if pe.Scenario != s.Name {
			t.Errorf("PanicError names scenario %q, want %q", pe.Scenario, s.Name)
		}
	})
	if dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*-panic.jsonl")); len(dumps) == 0 {
		t.Error("mid-run panic left no flight dump")
	}
}
