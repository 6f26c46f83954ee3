package agentrpc

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file is the daemon's chaos harness: a fault-injecting net.Conn
// wrapper swept across every socket failure mode the serving path must
// survive, in the style of the runstore crash matrix. Every fault must
// degrade the client to its AIMD-safe fallback within the per-decision
// deadline budget, the breaker must trip (no per-decision network latency
// while the fault persists) and recover after the fault heals, the
// counters must account for every decision, and nothing may leak a
// goroutine.

// pipeListener is an in-memory net.Listener over net.Pipe. Pipe writes are
// synchronous (they block until the peer reads), which is exactly what the
// write-deadline regression test needs — real TCP buffers a 17-byte
// response and a stalled reader would never surface.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server side of a fresh pipe to Accept and returns the
// client side.
func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// Fault modes injected by faultConn.
const (
	faultNone         = iota
	faultHungRead     // responses never arrive; reads block to the deadline
	faultSlowLoris    // one response byte arrives, the rest never do
	faultStallWrite   // request writes stall to the write deadline
	faultMidFrameKill // the connection dies after half a request frame
)

// faultConn wraps a live client connection and injects the active fault
// mode. Deadlines set by the client are honoured: a blocked read or write
// returns os.ErrDeadlineExceeded (a net.Error with Timeout() true) when the
// recorded deadline passes, exactly like a real socket.
type faultConn struct {
	net.Conn
	mode *atomic.Int32

	mu sync.Mutex
	rd time.Time
	wd time.Time
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd, c.wd = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rd = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wd = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// blockUntil sleeps to the recorded deadline and returns the same error a
// real socket would. A missing deadline falls back to a short cap so a
// buggy client that forgot its deadline fails the test instead of hanging.
func (c *faultConn) blockUntil(deadline time.Time) error {
	if deadline.IsZero() {
		deadline = time.Now().Add(2 * time.Second)
	}
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return os.ErrDeadlineExceeded
}

func (c *faultConn) Read(b []byte) (int, error) {
	switch c.mode.Load() {
	case faultHungRead:
		c.mu.Lock()
		d := c.rd
		c.mu.Unlock()
		return 0, c.blockUntil(d)
	case faultSlowLoris:
		// Deliver exactly one byte, then starve: io.ReadFull(respSize) can
		// never finish and must hit the deadline.
		n, err := c.Conn.Read(b[:1])
		if err != nil {
			return n, err
		}
		c.mu.Lock()
		d := c.rd
		c.mu.Unlock()
		return n, c.blockUntil(d)
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	switch c.mode.Load() {
	case faultStallWrite:
		c.mu.Lock()
		d := c.wd
		c.mu.Unlock()
		return 0, c.blockUntil(d)
	case faultMidFrameKill:
		n, err := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		if err == nil {
			err = errors.New("connection killed mid-frame")
		}
		return n, err
	}
	return c.Conn.Write(b)
}

// gatePolicy blocks inside Decide while its gate is held and the first
// state value matches the jam marker — the BUSY-storm test uses it to pin
// the batcher mid-execution deterministically.
type gatePolicy struct{ gate chan struct{} }

func (p gatePolicy) Decide(state []float64) (float64, float64) {
	if len(state) > 0 && state[0] == jamMarker {
		<-p.gate
	}
	return 0.5, 0.5
}

const jamMarker = -12345

// chaosBudget is the per-decision wall-clock bound every fault must respect:
// one transport deadline, at most one dial, and scheduling grace.
func chaosBudget(cfg ClientConfig) time.Duration {
	return cfg.Timeout + cfg.DialTimeout + 200*time.Millisecond
}

// checkGoroutines fails the test if the goroutine count has not returned to
// the baseline within a generous window.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// decideAndCount runs one Decide, asserting the budget, and returns whether
// the answer came from the fallback.
func decideAndCount(t *testing.T, cl *Client, cfg ClientConfig, state []float64, fb constPolicy) bool {
	t.Helper()
	start := time.Now()
	mu, delta := cl.Decide(state)
	if took := time.Since(start); took > chaosBudget(cfg) {
		t.Fatalf("decision took %v, budget %v", took, chaosBudget(cfg))
	}
	return mu == fb.mu && delta == fb.delta
}

// TestChaosMatrix sweeps the socket fault modes: for each, a healthy client
// suffers the fault, must serve AIMD-safe fallback decisions within the
// budget, trip its breaker (trips ≥ 1), recover after the fault heals
// (recoveries ≥ 1, remote decisions resume), and account for every decision
// as exactly one of remote/fallback. Each subtest also checks for goroutine
// leaks. Run under -race by scripts/check.sh.
func TestChaosMatrix(t *testing.T) {
	modes := []struct {
		name string
		mode int32
	}{
		{"hung-read", faultHungRead},
		{"slow-loris", faultSlowLoris},
		{"stalled-write", faultStallWrite},
		{"mid-frame-kill", faultMidFrameKill},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var mode atomic.Int32
			cfg := ClientConfig{
				Timeout:         50 * time.Millisecond,
				BreakerTrip:     3,
				BreakerCooldown: 40 * time.Millisecond,
				JitterSeed:      7,
			}
			fb := constPolicy{0.25, 0.75}
			cl, err := dialWith(srv.Addr(), fb, cfg, func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return &faultConn{Conn: conn, mode: &mode}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			cfg = cl.cfg // capture the applied defaults for the budget

			var calls int64
			// Healthy round trip first: the fault hits an established flow.
			if decideAndCount(t, cl, cfg, []float64{1}, fb) {
				t.Fatal("healthy decision did not go remote")
			}
			calls++

			mode.Store(m.mode)
			for i := 0; i < 12; i++ {
				if !decideAndCount(t, cl, cfg, []float64{1}, fb) {
					t.Fatalf("decision %d under %s not served by the fallback", i, m.name)
				}
				calls++
			}
			if cl.BreakerTrips() < 1 {
				t.Fatalf("breaker never tripped under %s", m.name)
			}
			// With the breaker open, decisions must be instant — no network.
			attempts := cl.DialAttempts()
			for i := 0; i < 5; i++ {
				start := time.Now()
				cl.Decide([]float64{1})
				calls++
				if took := time.Since(start); cl.BreakerOpen() && took > 10*time.Millisecond {
					t.Fatalf("open-breaker decision took %v", took)
				}
			}
			if cl.BreakerOpen() && cl.DialAttempts() != attempts {
				t.Fatal("open breaker still dialing")
			}

			// Heal: half-open probes must rediscover the service.
			mode.Store(faultNone)
			deadline := time.Now().Add(5 * time.Second)
			remoteBefore := cl.RemoteDecisions()
			for cl.RemoteDecisions() == remoteBefore {
				if time.Now().After(deadline) {
					t.Fatalf("client never recovered from %s", m.name)
				}
				decideAndCount(t, cl, cfg, []float64{1}, fb)
				calls++
				time.Sleep(5 * time.Millisecond)
			}
			if cl.BreakerRecoveries() < 1 {
				t.Fatal("recovery not recorded by the breaker")
			}
			if got := cl.RemoteDecisions() + cl.FallbackDecisions(); got != calls {
				t.Fatalf("accounting: %d remote + %d fallback != %d calls",
					cl.RemoteDecisions(), cl.FallbackDecisions(), calls)
			}

			cl.Close()
			srv.Close()
			checkGoroutines(t, base)
		})
	}
}

// TestChaosBusyStorm jams the batcher mid-execution with no queue, so every
// request is shed with a typed BUSY: the client must fall back instantly
// (the connection stays healthy — no dial churn), trip its breaker on
// consecutive BUSYs, and recover once the jam clears.
func TestChaosBusyStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{MaxQueue: -1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := ClientConfig{
		Timeout:         100 * time.Millisecond,
		BreakerTrip:     3,
		BreakerCooldown: 40 * time.Millisecond,
		JitterSeed:      7,
	}
	fb := constPolicy{0.25, 0.75}
	cl, err := DialConfig(srv.Addr(), fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg = cl.cfg

	// With no queue a request is shed unless the batcher is already parked
	// on its receive, which the freshly started goroutine may not be yet.
	var calls int64
	for deadline := time.Now().Add(5 * time.Second); ; {
		calls++
		if !decideAndCount(t, cl, cfg, []float64{1}, fb) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy decision did not go remote")
		}
		time.Sleep(time.Millisecond)
	}

	// Jam the batcher: a raw connection parks one request inside Decide.
	jam, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer jam.Close()
	if _, err := jam.Write(appendRequest(nil, []float64{jamMarker})); err != nil {
		t.Fatal(err)
	}
	// Wait until the jam request is actually inside the policy — its
	// execution is the second one — before sending anything else: with no
	// queue, a probe racing the jam to the batcher would get the jam itself
	// shed and leave the batcher free.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Batches() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("batcher never jammed")
		}
		time.Sleep(time.Millisecond)
	}

	dials := cl.DialAttempts()
	for i := 0; i < 8; i++ {
		if !decideAndCount(t, cl, cfg, []float64{1}, fb) && !cl.BreakerOpen() {
			t.Fatalf("decision %d during the storm neither shed nor fallback", i)
		}
		calls++
	}
	if cl.BusyResponses() < 1 {
		t.Fatal("no BUSY responses recorded")
	}
	if cl.BreakerTrips() < 1 {
		t.Fatal("breaker never tripped on the BUSY storm")
	}
	if cl.DialAttempts() != dials {
		t.Fatal("BUSY responses caused dial churn — the connection should stay up")
	}

	// Clear the jam; the breaker's half-open probe must find the service.
	close(gate)
	remoteBefore := cl.RemoteDecisions()
	deadline = time.Now().Add(5 * time.Second)
	for cl.RemoteDecisions() == remoteBefore {
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after the storm")
		}
		decideAndCount(t, cl, cfg, []float64{1}, fb)
		calls++
		time.Sleep(5 * time.Millisecond)
	}
	if cl.BreakerRecoveries() < 1 {
		t.Fatal("recovery not recorded")
	}
	if got := cl.RemoteDecisions() + cl.FallbackDecisions(); got != calls {
		t.Fatalf("accounting: %d remote + %d fallback != %d calls",
			cl.RemoteDecisions(), cl.FallbackDecisions(), calls)
	}
	if srv.Shed() < cl.BusyResponses() {
		t.Fatalf("server shed %d < client BUSY %d", srv.Shed(), cl.BusyResponses())
	}

	cl.Close()
	jam.Close()
	srv.Close()
	checkGoroutines(t, base)
}

// TestChaosPanicMidBatch drives a policy that panics on poisoned states:
// the batch gets typed ERR responses (the connection survives), the client
// falls back within budget and trips its breaker, and healthy states serve
// again immediately — the daemon itself never dies.
func TestChaosPanicMidBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := ServeConfig("127.0.0.1:0", panicPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := ClientConfig{
		Timeout:         100 * time.Millisecond,
		BreakerTrip:     3,
		BreakerCooldown: 40 * time.Millisecond,
		JitterSeed:      7,
	}
	fb := constPolicy{0.25, 0.75}
	cl, err := DialConfig(srv.Addr(), fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cfg = cl.cfg

	// With no queue a request is shed unless the batcher is already parked
	// on its receive, which the freshly started goroutine may not be yet.
	var calls int64
	for deadline := time.Now().Add(5 * time.Second); ; {
		calls++
		if !decideAndCount(t, cl, cfg, []float64{1}, fb) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthy decision did not go remote")
		}
		time.Sleep(time.Millisecond)
	}

	dials := cl.DialAttempts()
	for i := 0; i < 6; i++ {
		if !decideAndCount(t, cl, cfg, []float64{-1}, fb) && !cl.BreakerOpen() {
			t.Fatalf("poisoned decision %d not served by the fallback", i)
		}
		calls++
	}
	if srv.Panics() < 1 {
		t.Fatal("server recorded no panics")
	}
	if cl.BreakerTrips() < 1 {
		t.Fatal("breaker never tripped on ERR responses")
	}
	if cl.DialAttempts() != dials {
		t.Fatal("typed ERR responses caused dial churn — the connection should stay up")
	}

	// Healthy states must serve again without restarting anything.
	remoteBefore := cl.RemoteDecisions()
	deadline := time.Now().Add(5 * time.Second)
	for cl.RemoteDecisions() == remoteBefore {
		if time.Now().After(deadline) {
			t.Fatal("daemon never answered again after mid-batch panics")
		}
		decideAndCount(t, cl, cfg, []float64{1}, fb)
		calls++
		time.Sleep(5 * time.Millisecond)
	}
	if cl.BreakerRecoveries() < 1 {
		t.Fatal("recovery not recorded")
	}
	if got := cl.RemoteDecisions() + cl.FallbackDecisions(); got != calls {
		t.Fatalf("accounting: %d remote + %d fallback != %d calls",
			cl.RemoteDecisions(), cl.FallbackDecisions(), calls)
	}

	cl.Close()
	srv.Close()
	checkGoroutines(t, base)
}

// TestClientShedsAboveMaxPending: more concurrent Decide callers than
// MaxPending must be served from the fallback immediately instead of
// queueing behind the connection mutex.
func TestClientShedsAboveMaxPending(t *testing.T) {
	gate := make(chan struct{})
	srv, err := ServeConfig("127.0.0.1:0", gatePolicy{gate}, Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fb := constPolicy{0.25, 0.75}
	cl, err := DialConfig(srv.Addr(), fb, ClientConfig{
		Timeout:    500 * time.Millisecond,
		MaxPending: 2,
		JitterSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Park one decision inside the daemon, then pile callers on the client.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.Decide([]float64{jamMarker})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for cl.pendingN.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked decision never started")
		}
		time.Sleep(time.Millisecond)
	}
	const burst = 8
	shedBefore := cl.ShedDecisions()
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func() {
			defer wg.Done()
			cl.Decide([]float64{1})
		}()
	}
	for cl.ShedDecisions() == shedBefore {
		if time.Now().After(deadline) {
			t.Fatal("no caller was shed above MaxPending")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if cl.ShedDecisions() == 0 {
		t.Fatal("shed decisions not recorded")
	}
}
