package agentrpc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// echoPolicy returns values derived from the state for verification.
type echoPolicy struct{}

func (echoPolicy) Decide(state []float64) (float64, float64) {
	var sum float64
	for _, v := range state {
		sum += v
	}
	return sum, float64(len(state))
}

// constPolicy is a fixed fallback.
type constPolicy struct{ mu, delta float64 }

func (p constPolicy) Decide([]float64) (float64, float64) { return p.mu, p.delta }

func TestRoundTrip(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	mu, delta := cl.Decide([]float64{0.25, 0.5, -0.25})
	if mu != 0.5 || delta != 3 {
		t.Fatalf("remote decision (%v, %v), want (0.5, 3)", mu, delta)
	}
	if cl.RemoteDecisions() != 1 || cl.FallbackDecisions() != 0 {
		t.Fatalf("decision accounting wrong: %d remote, %d fallback",
			cl.RemoteDecisions(), cl.FallbackDecisions())
	}
	if srv.Decisions() != 1 {
		t.Fatalf("server counted %d decisions", srv.Decisions())
	}
}

func TestManyDecisionsOneConnection(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 500; i++ {
		mu, _ := cl.Decide([]float64{float64(i)})
		if mu != float64(i) {
			t.Fatalf("decision %d returned %v", i, mu)
		}
	}
	if cl.RemoteDecisions() != 500 {
		t.Fatalf("remote decisions %d", cl.RemoteDecisions())
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr(), constPolicy{})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				if mu, _ := cl.Decide([]float64{float64(w)}); mu != float64(w) {
					t.Errorf("worker %d got %v", w, mu)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if srv.Decisions() != 800 {
		t.Fatalf("server decisions %d, want 800", srv.Decisions())
	}
}

func TestFallbackOnDeadServer(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), constPolicy{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Decide([]float64{1}) // healthy round trip
	srv.Close()

	// The datapath must keep getting answers from the fallback.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu, delta := cl.Decide([]float64{1})
		if mu == 0.25 && delta == 0.75 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fallback never engaged")
		}
	}
	if cl.FallbackDecisions() == 0 {
		t.Fatal("no fallback decisions recorded")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Fatal("nil fallback accepted")
	}
	if _, err := Dial("127.0.0.1:1", constPolicy{}); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if _, err := ServeConfig("127.0.0.1:0", nil, Config{}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestOversizedStateFallsBack(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	huge := make([]float64, maxStateDim+1)
	mu, _ := cl.Decide(huge)
	if mu != -1 {
		t.Fatalf("oversized state answered remotely: %v", mu)
	}
}

func TestJuryOverRPCEndToEnd(t *testing.T) {
	// The paper's deployment shape: the emulated datapath's Jury controller
	// asks a separate inference service for every decision. The flow must
	// behave like a local-policy flow.
	srv, err := ServeConfig("127.0.0.1:0", core.NewReferencePolicy(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), core.NewReferencePolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := netsim.New(netsim.Config{Seed: 1})
	l := n.AddLink(netsim.LinkConfig{Rate: 30e6, Delay: 15 * time.Millisecond, BufferBytes: 225_000})
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	f := n.AddFlow(netsim.FlowConfig{Name: "rpc", Path: []*netsim.Link{l},
		Alg: core.New(cfg, cl)})
	n.Run(30 * time.Second)

	if u := l.Utilization(30 * time.Second); u < 0.8 {
		t.Fatalf("RPC-driven Jury utilization %v", u)
	}
	if cl.RemoteDecisions() < 100 {
		t.Fatalf("only %d remote decisions over 30s of 30ms intervals", cl.RemoteDecisions())
	}
	if f.Stats().LossRate > 0.01 {
		t.Fatalf("loss rate %v", f.Stats().LossRate)
	}
}
