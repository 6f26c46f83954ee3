package agentrpc

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simcheck"
)

// runParitySim runs the canonical two-flow shared-bottleneck scenario with
// each flow's Jury controller driven by the supplied policy factory, and
// returns the simulation's event digest.
func runParitySim(t *testing.T, mkPolicy func(flow int) core.Policy) uint64 {
	t.Helper()
	n := netsim.New(netsim.Config{Seed: 11})
	l := n.AddLink(netsim.LinkConfig{Rate: 30e6, Delay: 15 * time.Millisecond, BufferBytes: 225_000})
	for i := 0; i < 2; i++ {
		i := i
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(100 + i)
		n.AddFlow(netsim.FlowConfig{
			Name: []string{"a", "b"}[i], Path: []*netsim.Link{l},
			Alg: core.New(cfg, mkPolicy(i)),
		})
	}
	ck := simcheck.Attach(n)
	n.Run(20 * time.Second)
	if vs := ck.Finish(); len(vs) > 0 {
		t.Fatalf("invariant violations: %v", vs)
	}
	return ck.Digest()
}

// TestDigestParityAgainstDaemon: a simulation whose decisions come from a
// healthy daemon must be bit-for-bit identical to the in-process run. The
// wire carries raw f64 bits and the per-request serving path runs the exact
// same code, so the digests — which hash every packet event — must match.
// This is the end-to-end proof that the serving layer adds fault tolerance
// without perturbing a single decision.
func TestDigestParityAgainstDaemon(t *testing.T) {
	local := runParitySim(t, func(int) core.Policy { return core.NewReferencePolicy() })

	srv, err := ServeConfig("127.0.0.1:0", core.NewReferencePolicy(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clients := make([]*Client, 0, 2)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	remote := runParitySim(t, func(flow int) core.Policy {
		// Generous timeout: simulated time is decoupled from wall time, so a
		// scheduler hiccup must not push a healthy decision onto the fallback.
		cl, err := DialConfig(srv.Addr(), core.AIMDPolicy{}, ClientConfig{
			Timeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatalf("dial for flow %d: %v", flow, err)
		}
		clients = append(clients, cl)
		return cl
	})

	var fallbacks int64
	for _, cl := range clients {
		fallbacks += cl.FallbackDecisions()
	}
	if fallbacks != 0 {
		t.Fatalf("%d decisions fell back against a healthy daemon", fallbacks)
	}
	if remote != local {
		t.Fatalf("digest mismatch: daemon-driven %016x != in-process %016x", remote, local)
	}
	if srv.Decisions() == 0 {
		t.Fatal("daemon served no decisions")
	}
}
