package agentrpc

import (
	"errors"
	"math"
	"sync"
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

// gatedActor is an NNPolicy that records the row count of every batched
// execution and parks the batcher inside the execution whose first state
// value is the jam marker until gate is closed. The batching tests use it to
// build a known queue behind a held execution — no timing involved.
type gatedActor struct {
	*core.NNPolicy
	entered chan struct{} // one token per parked execution
	gate    chan struct{}

	mu   sync.Mutex
	rows []int
}

func newGatedActor(t *testing.T, dim int) *gatedActor {
	return &gatedActor{NNPolicy: testActor(t, dim), entered: make(chan struct{}, 1), gate: make(chan struct{})}
}

func (g *gatedActor) DecideBatch(states []float64, rows int, mu, delta []float64) {
	g.mu.Lock()
	g.rows = append(g.rows, rows)
	g.mu.Unlock()
	if states[0] == jamMarker {
		g.entered <- struct{}{}
		<-g.gate
	}
	g.NNPolicy.DecideBatch(states, rows, mu, delta)
}

func (g *gatedActor) executions() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.rows...)
}

// queueBehindHeldExecution parks the batcher inside a one-row execution,
// waits until k more requests (one per client, each with its own state) sit
// in the daemon's queue, then releases the gate and returns the k states and
// their answers in client order.
func queueBehindHeldExecution(t *testing.T, srv *Server, g *gatedActor, dim, k int) (states [][]float64, mus, deltas []float64) {
	t.Helper()
	dial := func() *Client {
		cl, err := DialConfig(srv.Addr(), constPolicy{-9, -9}, ClientConfig{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}

	jam := make([]float64, dim)
	jam[0] = jamMarker
	jammer := dial()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if mu, _ := jammer.Decide(jam); mu == -9 {
			t.Error("held decision fell back")
		}
	}()
	<-g.entered // the batcher is now inside the execution

	states = make([][]float64, k)
	mus = make([]float64, k)
	deltas = make([]float64, k)
	for i := 0; i < k; i++ {
		states[i] = make([]float64, dim)
		for j := range states[i] {
			states[i][j] = 0.05*float64(i+1) - 0.01*float64(i%7) + 0.001*float64(j)
		}
		cl := dial()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mus[i], deltas[i] = cl.Decide(states[i])
		}(i)
	}
	for deadline := time.Now().Add(30 * time.Second); srv.QueueDepth() < k; {
		if time.Now().After(deadline) {
			close(g.gate) // let the deferred Close finish
			t.Fatalf("only %d of %d requests reached the queue", srv.QueueDepth(), k)
		}
		time.Sleep(time.Millisecond)
	}
	close(g.gate)
	wg.Wait()
	return states, mus, deltas
}

// TestBatchCoalescing: requests that queue up while the batcher is inside an
// execution are served together by the next one — 1 + K requests cost
// exactly two policy executions — and every batched decision matches the
// scalar path within float tolerance.
func TestBatchCoalescing(t *testing.T) {
	const dim, k = 16, 8
	g := newGatedActor(t, dim)
	srv, err := ServeConfig("127.0.0.1:0", g, Config{MaxBatch: 64, WaitTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	states, mus, deltas := queueBehindHeldExecution(t, srv, g, dim, k)
	local := testActor(t, dim)
	for i, st := range states {
		wantMu, wantDelta := local.Decide(st)
		if math.Abs(mus[i]-wantMu) > 1e-9 || math.Abs(deltas[i]-wantDelta) > 1e-9 {
			t.Fatalf("client %d: batched decision (%v, %v) diverged from the scalar path (%v, %v)",
				i, mus[i], deltas[i], wantMu, wantDelta)
		}
	}
	if got := g.executions(); len(got) != 2 || got[0] != 1 || got[1] != k {
		t.Fatalf("executions ran %v rows, want [1 %d]", got, k)
	}
	if srv.Batches() != 2 || srv.BatchedRequests() != k+1 || srv.Decisions() != k+1 {
		t.Fatalf("batches=%d batched=%d decisions=%d, want 2/%d/%d",
			srv.Batches(), srv.BatchedRequests(), srv.Decisions(), k+1, k+1)
	}
}

// TestBatchNeverExceedsMaxBatch: a queue deeper than MaxBatch is served in
// MaxBatch-sized executions plus the remainder, in arrival order.
func TestBatchNeverExceedsMaxBatch(t *testing.T) {
	const dim, maxBatch = 8, 4
	g := newGatedActor(t, dim)
	srv, err := ServeConfig("127.0.0.1:0", g, Config{MaxBatch: maxBatch, WaitTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, mus, _ := queueBehindHeldExecution(t, srv, g, dim, maxBatch+3)
	for i, mu := range mus {
		if mu == -9 {
			t.Fatalf("client %d fell back", i)
		}
	}
	if got := g.executions(); len(got) != 3 || got[0] != 1 || got[1] != maxBatch || got[2] != 3 {
		t.Fatalf("executions ran %v rows, want [1 %d 3]", got, maxBatch)
	}
	if srv.Batches() != 3 || srv.BatchedRequests() != maxBatch+4 {
		t.Fatalf("batches=%d batched=%d, want 3/%d", srv.Batches(), srv.BatchedRequests(), maxBatch+4)
	}
}

// TestLoneClientNeverWaitsForCompany: one closed-loop client is served one
// execution per decision — the batcher does not hold a request back hoping
// for a fuller batch — and every answer is bit-equal to a local one-row
// DecideBatch.
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
// connection — and the late batcher result lands harmlessly in the
// abandoned pending.
func TestServingDeadlineAnswersERR(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{MaxBatch: 1, WaitTimeout: 30 * time.Millisecond})
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
// inside the batcher before shutting down.
func TestDrainAnswersInFlight(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{MaxBatch: 1, WaitTimeout: 5 * time.Second})
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
	for srv.ActiveConns() == 0 || srv.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the batcher")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the batcher enter Decide
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

// TestTenantAccounting: hello-labelled connections are accounted per tenant
// and the OnTenant hook fires for existing and future labels exactly once.
func TestTenantAccounting(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	alpha, err := DialConfig(srv.Addr(), constPolicy{}, ClientConfig{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	for i := 0; i < 3; i++ {
		alpha.Decide([]float64{1})
	}

	var mu sync.Mutex
	seen := map[string]int{}
	srv.OnTenant(func(name string) {
		mu.Lock()
		seen[name]++
		mu.Unlock()
	})

	beta, err := DialConfig(srv.Addr(), constPolicy{}, ClientConfig{Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	defer beta.Close()
	for i := 0; i < 2; i++ {
		beta.Decide([]float64{1})
	}

	if got := srv.TenantDecisions("alpha"); got != 3 {
		t.Fatalf("alpha decisions %d, want 3", got)
	}
	if got := srv.TenantDecisions("beta"); got != 2 {
		t.Fatalf("beta decisions %d, want 2", got)
	}
	if got := srv.TenantDecisions("nobody"); got != 0 {
		t.Fatalf("unknown tenant reports %d decisions", got)
	}
	names := srv.Tenants()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("tenants %v", names)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["alpha"] != 1 || seen["beta"] != 1 {
		t.Fatalf("tenant hook fired %v, want once per label", seen)
	}
}

// TestExecuteAllocFree pins the daemon's execution core — one batched
// policy execution plus the hand-back of every decision — to zero
// allocations in steady state, for a lone request and for a full default
// batch.
func TestExecuteAllocFree(t *testing.T) {
	const dim = 16
	for _, rows := range []int{1, defaultMaxBatch} {
		s := &Server{}
		s.pv.Store(newPolicyVersion(1, testActor(t, dim), nil))
		batch := make([]*pending, rows)
		for i := range batch {
			p := newPending()
			for j := 0; j < dim; j++ {
				p.state = append(p.state, 0.01*float64(i%17)+0.001*float64(j))
			}
			batch[i] = p
		}
		xbuf := make([]float64, 0, rows*dim)
		mus := make([]float64, rows)
		deltas := make([]float64, rows)
		avg := testing.AllocsPerRun(100, func() {
			xbuf = s.execute(batch, xbuf, mus, deltas)
			for _, p := range batch {
				<-p.done
			}
		})
		if avg != 0 {
			t.Errorf("execute at %d rows allocates %v per batch, want 0", rows, avg)
		}
		for i, p := range batch {
			if p.status != statusOK {
				t.Fatalf("%d rows: row %d finished with status %d", rows, i, p.status)
			}
		}
		if got := s.batchedRequests.Load(); got != int64(101*rows) {
			t.Fatalf("%d rows: batched %d requests, want %d", rows, got, 101*rows)
		}
	}
}
