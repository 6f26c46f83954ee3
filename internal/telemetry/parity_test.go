package telemetry_test

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/exp"
	"repro/internal/telemetry"
)

// parityScenario is a checked multi-scheme dumbbell: long enough for drops,
// interval stats, and Jury decision-guard counters to all fire.
func parityScenario() exp.Scenario {
	return exp.Scenario{
		Name:        "telemetry-parity",
		Rate:        20e6,
		OneWayDelay: 20 * time.Millisecond,
		BufferBytes: 64 * 1500,
		Flows: []exp.FlowSpec{
			{Scheme: "cubic"},
			{Scheme: "jury", Start: 500 * time.Millisecond},
		},
		Horizon: 3 * time.Second,
		Seed:    7,
		Check:   true,
	}
}

// TestTelemetryDigestParity pins the determinism contract of the telemetry
// layer: a live hub (metrics, tracer, jury exports) must leave a checked
// run's event-stream digest bit-identical, because telemetry attaches nothing
// to the network — the pipeline adds the finished run's totals afterwards.
func TestTelemetryDigestParity(t *testing.T) {
	if exp.Telemetry != nil {
		t.Fatal("test requires the package-level hub to start nil")
	}
	base, err := exp.Run(parityScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !base.Checked || base.Digest == 0 {
		t.Fatalf("baseline run not checked (checked=%v digest=%#x)", base.Checked, base.Digest)
	}

	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	exp.Telemetry = hub
	defer func() { exp.Telemetry = nil }()
	instr, err := exp.Run(parityScenario())
	if err != nil {
		t.Fatal(err)
	}
	if instr.Digest != base.Digest {
		t.Fatalf("telemetry perturbed the simulation: digest %#016x (instrumented) != %#016x (bare)",
			instr.Digest, base.Digest)
	}

	// The run's totals must actually have reached the registry.
	r := hub.Registry
	if r.Counter("sim_packets_sent_total", "").Value() == 0 {
		t.Error("sim_packets_sent_total stayed 0 under an instrumented run")
	}
	if r.Counter("sim_intervals_total", "").Value() == 0 {
		t.Error("sim_intervals_total stayed 0 under an instrumented run")
	}
	if r.Counter("exp_runs_finished_total", "").Value() != 1 {
		t.Errorf("exp_runs_finished_total = %d, want 1", r.Counter("exp_runs_finished_total", "").Value())
	}
}

// TestRunManyInstrumented: the sweep path emits progress and keeps results
// identical to bare runs.
func TestRunManyInstrumented(t *testing.T) {
	jobs := []exp.Scenario{parityScenario(), parityScenario()}
	jobs[1].Seed = 11
	jobs[1].Name = "telemetry-parity-b"

	bare, err := exp.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}

	hub := &telemetry.Hub{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.NewSink(io.Discard)),
	}
	exp.Telemetry = hub
	defer func() { exp.Telemetry = nil }()
	instr, err := exp.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if bare[i].Digest != instr[i].Digest {
			t.Errorf("job %d digest mismatch: %#x != %#x", i, instr[i].Digest, bare[i].Digest)
		}
	}
	if got := hub.Registry.Counter("exp_runs_finished_total", "").Value(); got != 2 {
		t.Errorf("exp_runs_finished_total = %d, want 2", got)
	}
}

// TestPreRegisteredHelpIsStable: every family Setup pre-registers keeps its
// # HELP line once an instrumented run, the daemon export and the training
// observer have registered their instruments under the same names — each
// family has one help string, whoever registers it first.
func TestPreRegisteredHelpIsStable(t *testing.T) {
	hub, err := telemetry.Setup(telemetry.Options{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	before := helpLines(t, hub.Registry)

	exp.Telemetry = hub
	defer func() { exp.Telemetry = nil }()
	if _, err := exp.Run(parityScenario()); err != nil {
		t.Fatal(err)
	}
	srv, err := agentrpc.ServeConfig("127.0.0.1:0", fixedPolicy{0.5, 0.25}, agentrpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hub.ExportRPCDaemon(srv)
	hub.Training()

	after := helpLines(t, hub.Registry)
	for name, help := range before {
		if after[name] != help {
			t.Errorf("%s help changed from %q to %q", name, help, after[name])
		}
	}
}

// helpLines maps each family of r's Prometheus exposition to its help text.
func helpLines(t *testing.T, r *telemetry.Registry) map[string]string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	help := map[string]string{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
		}
	}
	return help
}
