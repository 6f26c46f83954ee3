package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/agentrpc"
	"repro/internal/telemetry"
)

type fixedPolicy struct{ mu, delta float64 }

func (p fixedPolicy) Decide([]float64) (float64, float64) { return p.mu, p.delta }

// TestRPCInstrumentation wires a real client/server pair through the hub:
// the latency hook feeds the histogram and remote/fallback counters, and
// ExportRPCDaemon mirrors the server's own accounting onto the registry.
func TestRPCInstrumentation(t *testing.T) {
	srv, err := agentrpc.ServeConfig("127.0.0.1:0", fixedPolicy{0.5, 0.25}, agentrpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := agentrpc.Dial(srv.Addr(), fixedPolicy{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hub := &telemetry.Hub{Registry: telemetry.NewRegistry()}
	hub.ExportRPCDaemon(srv)
	cl.SetLatencyHook(hub.RPCClientHook())

	for i := 0; i < 3; i++ {
		if mu, _ := cl.Decide([]float64{0.1, 0.2}); mu != 0.5 {
			t.Fatalf("decision %d: mu = %v, want remote 0.5", i, mu)
		}
	}
	srv.Close() // force the fallback path
	if mu, _ := cl.Decide([]float64{0.1}); mu != -1 {
		t.Fatalf("post-close decision mu = %v, want fallback -1", mu)
	}

	r := hub.Registry
	if got := r.Counter("rpc_remote_decisions_total", "").Value(); got != 3 {
		t.Errorf("rpc_remote_decisions_total = %d, want 3", got)
	}
	if got := r.Counter("rpc_fallback_decisions_total", "").Value(); got != 1 {
		t.Errorf("rpc_fallback_decisions_total = %d, want 1", got)
	}
	if got := r.Histogram("rpc_decide_seconds", "").Count(); got != 4 {
		t.Errorf("rpc_decide_seconds count = %d, want 4", got)
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rpc_server_decisions 3") {
		t.Errorf("exposition missing live server gauge:\n%s", b.String())
	}
}

// TestRPCDaemonInstrumentation exports the full daemon surface: policy
// executions and hot-swap.
func TestRPCDaemonInstrumentation(t *testing.T) {
	srv, err := agentrpc.ServeConfig("127.0.0.1:0", fixedPolicy{0.5, 0.25}, agentrpc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hub := &telemetry.Hub{Registry: telemetry.NewRegistry()}
	hub.ExportRPCDaemon(srv)

	// Two decisions and one swap.
	cl, err := agentrpc.Dial(srv.Addr(), fixedPolicy{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if mu, _ := cl.Decide([]float64{0.1}); mu != 0.5 {
			t.Fatalf("decision %d: mu = %v", i, mu)
		}
	}
	if _, err := srv.Swap(fixedPolicy{0.7, 0.25}); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	if err := hub.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"rpc_server_batched_requests 2",
		"rpc_server_swaps 1",
		"rpc_server_policy_version 2",
		"rpc_server_decisions 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
