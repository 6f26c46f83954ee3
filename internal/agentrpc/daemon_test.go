package agentrpc

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// nonFiniteTrap wraps a policy and corrupts its μ output whenever the first
// state value exceeds the trigger: finite on ordinary states, NaN under
// load.
type nonFiniteTrap struct {
	inner   Policy
	trigger float64
}

func (p nonFiniteTrap) Decide(state []float64) (float64, float64) {
	mu, delta := p.inner.Decide(state)
	if len(state) > 0 && state[0] > p.trigger {
		return math.NaN(), delta
	}
	return mu, delta
}

func testActor(t *testing.T, dim int) *core.NNPolicy {
	t.Helper()
	net := nn.NewMLP(simcore.NewRNG(7), []int{dim, 32, 32, 2}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	return &core.NNPolicy{Net: net}
}

// TestRuntimeNonFiniteFallsBack: a policy that answers NaN costs that one
// decision an ERR response, which the client serves from its fallback; the
// connection stays in sync and the next finite answer is served remotely.
func TestRuntimeNonFiniteFallsBack(t *testing.T) {
	trap := nonFiniteTrap{inner: constPolicy{0.3, 0.4}, trigger: 100}
	srv, err := ServeConfig("127.0.0.1:0", trap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, _ := cl.Decide([]float64{1}); mu != 0.3 {
		t.Fatalf("policy not serving: mu=%v", mu)
	}
	if mu, delta := cl.Decide([]float64{1000}); mu != -9 || delta != -9 {
		t.Fatalf("poisoned decision leaked to the datapath: (%v, %v)", mu, delta)
	}
	if srv.NonFinite() != 1 {
		t.Fatalf("guard bookkeeping: nonfinite=%d", srv.NonFinite())
	}
	if mu, _ := cl.Decide([]float64{1}); mu != 0.3 {
		t.Fatalf("finite decision after the guard not served remotely: mu=%v", mu)
	}
	if cl.RemoteDecisions() != 2 || cl.FallbackDecisions() != 1 {
		t.Fatalf("accounting: %d remote, %d fallback; want 2, 1", cl.RemoteDecisions(), cl.FallbackDecisions())
	}
}

// TestHeldDecisionBlocksNoOtherConnection: each connection decides on its
// own goroutine, so a decision held inside the policy delays only its own
// connection — another client's decision is answered OK meanwhile.
func TestHeldDecisionBlocksNoOtherConnection(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{WaitTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Client {
		cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	held, other := dial(), dial()

	heldMu := make(chan float64, 1)
	go func() {
		mu, _ := held.Decide([]float64{jamMarker})
		heldMu <- mu
	}()
	for deadline := time.Now().Add(30 * time.Second); srv.Batches() < 1; {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("held decision never reached the policy")
		}
		time.Sleep(time.Millisecond)
	}

	mu, delta := other.Decide([]float64{1})
	depth := srv.QueueDepth()
	var early bool
	select {
	case <-heldMu:
		early = true
	default:
	}
	close(gate) // before any Fatal: the deferred Close waits for the held execution
	if early {
		t.Fatal("held decision answered before its gate opened")
	}
	if mu != 0.5 || delta != 0.5 {
		t.Fatalf("decision beside a held one answered (%v, %v), want (0.5, 0.5)", mu, delta)
	}
	if depth != 1 {
		t.Fatalf("%d decisions in flight beside the held one, want 1", depth)
	}
	if mu := <-heldMu; mu != 0.5 {
		t.Fatalf("held decision answered mu=%v after its gate opened, want 0.5", mu)
	}
	if srv.Decisions() != 2 || srv.Timeouts() != 0 || srv.Shed() != 0 {
		t.Fatalf("decisions=%d timeouts=%d shed=%d, want 2/0/0", srv.Decisions(), srv.Timeouts(), srv.Shed())
	}
}

// TestLoneClientNeverWaitsForCompany: one closed-loop client is served one
// execution per decision — nothing holds a request back hoping for
// company — and every answer is bit-equal to a local one-row DecideBatch.
func TestLoneClientNeverWaitsForCompany(t *testing.T) {
	const dim, n = 16, 200
	srv, err := ServeConfig("127.0.0.1:0", testActor(t, dim), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	local := testActor(t, dim)
	state := make([]float64, dim)
	var wantMu, wantDelta [1]float64
	for i := 0; i < n; i++ {
		for j := range state {
			state[j] = 0.03*float64(i%11) - 0.002*float64(j)
		}
		mu, delta := cl.Decide(state)
		local.DecideBatch(state, 1, wantMu[:], wantDelta[:])
		if mu != wantMu[0] || delta != wantDelta[0] {
			t.Fatalf("decision %d: served (%v, %v), local one-row batch (%v, %v)", i, mu, delta, wantMu[0], wantDelta[0])
		}
	}
	if srv.Batches() != n || srv.Decisions() != n || srv.BatchedRequests() != n {
		t.Fatalf("batches=%d decisions=%d batched=%d, want %d each",
			srv.Batches(), srv.Decisions(), srv.BatchedRequests(), n)
	}
}

// TestServingDeadlineAnswersERR: a policy execution outliving WaitTimeout
// must cost that request a typed ERR (client falls back), never a wedged
// connection — and the late policy result is dropped once the execution
// returns, leaving the connection free to serve again.
func TestServingDeadlineAnswersERR(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{WaitTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialConfig(srv.Addr(), constPolicy{0.25, 0.75}, ClientConfig{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, delta := cl.Decide([]float64{jamMarker}); mu != 0.25 || delta != 0.75 {
		t.Fatalf("jammed decision answered (%v, %v), want the fallback", mu, delta)
	}
	if srv.Timeouts() != 1 {
		t.Fatalf("server recorded %d serving timeouts, want 1", srv.Timeouts())
	}
	close(gate)
	// The same connection must serve the next (healthy) request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if mu, _ := cl.Decide([]float64{1}); mu == 0.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never served again after a serving timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExecuteAllocFree pins the daemon's execution core — one decision
// through the policy, its scratch taken from and returned to the policy's
// free list, and the guards — to zero allocations in steady state.
func TestExecuteAllocFree(t *testing.T) {
	const dim = 16
	s := &Server{policy: testActor(t, dim)}
	state := make([]float64, dim)
	for j := range state {
		state[j] = 0.01 + 0.001*float64(j)
	}
	var status byte
	avg := testing.AllocsPerRun(100, func() { status, _, _ = s.execute(state) })
	if avg != 0 {
		t.Errorf("execute allocates %v per decision, want 0", avg)
	}
	if status != statusOK {
		t.Fatalf("execute finished with status %d", status)
	}
	if got := s.Batches(); got != 101 {
		t.Fatalf("ran %d executions, want 101", got)
	}
}
