package agentrpc

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/simcore"
)

// nanPolicy always answers NaN — a swap candidate the health gate must veto.
type nanPolicy struct{}

func (nanPolicy) Decide([]float64) (float64, float64) { return math.NaN(), 0 }

// probeBomb panics on any decision — poisoned weights at their worst.
type probeBomb struct{}

func (probeBomb) Decide([]float64) (float64, float64) { panic("poisoned candidate") }

// nonFiniteTrap wraps a policy and corrupts its μ output whenever the first
// state value exceeds the trigger: it passes the health probe, then NaNs
// under load.
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

func TestHotSwapServesNewVersion(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", constPolicy{0.1, 0.2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, delta := cl.Decide([]float64{1}); mu != 0.1 || delta != 0.2 {
		t.Fatalf("v1 answered (%v, %v)", mu, delta)
	}
	id, err := srv.Swap(constPolicy{0.3, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || srv.PolicyVersion() != 2 || srv.Swaps() != 1 {
		t.Fatalf("swap bookkeeping: id=%d version=%d swaps=%d", id, srv.PolicyVersion(), srv.Swaps())
	}
	if mu, delta := cl.Decide([]float64{1}); mu != 0.3 || delta != 0.4 {
		t.Fatalf("post-swap decision (%v, %v), want (0.3, 0.4)", mu, delta)
	}
}

func TestSwapHealthGateRejectsUnhealthyCandidates(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", constPolicy{0.1, 0.2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, bad := range []Policy{nanPolicy{}, probeBomb{}} {
		if _, err := srv.Swap(bad); !errors.Is(err, ErrUnhealthyPolicy) {
			t.Fatalf("unhealthy candidate %T accepted (err=%v)", bad, err)
		}
	}
	if srv.PolicyVersion() != 1 || srv.Swaps() != 0 {
		t.Fatalf("rejected swaps mutated serving state: version=%d swaps=%d",
			srv.PolicyVersion(), srv.Swaps())
	}
	// The original policy must still be serving.
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if mu, _ := cl.Decide([]float64{1}); mu != 0.1 {
		t.Fatalf("v1 not serving after rejected swaps: mu=%v", mu)
	}
}

func TestRuntimeNonFiniteRollsBack(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", constPolicy{0.1, 0.2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The trap policy is finite on the canonical probe states (small values)
	// but NaNs once the first state value exceeds the trigger — the failure
	// mode a load-time health gate cannot catch.
	trap := nonFiniteTrap{inner: constPolicy{0.3, 0.4}, trigger: 100}
	if _, err := srv.Swap(trap); err != nil {
		t.Fatalf("trap policy failed the probe: %v", err)
	}
	cl, err := Dial(srv.Addr(), constPolicy{-9, -9})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, _ := cl.Decide([]float64{1}); mu != 0.3 {
		t.Fatalf("v2 not serving: mu=%v", mu)
	}
	// Trip the guard: the poisoned decision is suppressed (client falls
	// back), the version rolls back automatically.
	if mu, delta := cl.Decide([]float64{1000}); mu != -9 || delta != -9 {
		t.Fatalf("poisoned decision leaked to the datapath: (%v, %v)", mu, delta)
	}
	if srv.NonFinite() != 1 || srv.Rollbacks() != 1 {
		t.Fatalf("guard bookkeeping: nonfinite=%d rollbacks=%d", srv.NonFinite(), srv.Rollbacks())
	}
	if srv.PolicyVersion() != 1 {
		t.Fatalf("still serving version %d after rollback", srv.PolicyVersion())
	}
	if mu, _ := cl.Decide([]float64{1000}); mu != 0.1 {
		t.Fatalf("rolled-back version not serving: mu=%v", mu)
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

// TestDrainAnswersInFlight: a graceful drain must answer the request already
// inside the policy before shutting down.
func TestDrainAnswersInFlight(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{WaitTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type result struct{ mu, delta float64 }
	got := make(chan result, 1)
	go func() {
		mu, delta := cl.Decide([]float64{jamMarker})
		got <- result{mu, delta}
	}()
	// Wait for the request to be inside the policy, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Batches() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the policy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the execution enter Decide
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	time.Sleep(20 * time.Millisecond)
	close(gate)

	select {
	case r := <-got:
		if r.mu != 0.5 || r.delta != 0.5 {
			t.Fatalf("in-flight decision answered (%v, %v) during drain, want (0.5, 0.5)", r.mu, r.delta)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight decision never answered")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.ActiveConns() != 0 {
		t.Fatalf("%d connections survived the drain", srv.ActiveConns())
	}
}

// TestExecuteAllocFree pins the daemon's execution core — one decision
// through the policy, its scratch taken from and returned to the policy's
// free list, and the guards — to zero allocations in steady state.
func TestExecuteAllocFree(t *testing.T) {
	const dim = 16
	s := &Server{}
	s.pv.Store(&policyVersion{id: 1, p: testActor(t, dim)})
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
