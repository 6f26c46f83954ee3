package agentrpc

import (
	"io"
	"net"
	"testing"
	"time"
)

// panicPolicy panics when the first state value is negative — a stand-in
// for poisoned weights or buggy experiment code inside the service.
type panicPolicy struct{}

func (panicPolicy) Decide(state []float64) (float64, float64) {
	if len(state) > 0 && state[0] < 0 {
		panic("poisoned inference")
	}
	return 0.5, 0.5
}

// TestServerWriteDeadlineDropsStalledReader: a client that sends requests
// but never drains its socket must cost the server one connection, not a
// goroutine blocked in Write forever. net.Pipe is the vehicle because its
// writes are synchronous — a real TCP socket buffers a 17-byte response and
// the bug would never surface.
func TestServerWriteDeadlineDropsStalledReader(t *testing.T) {
	pl := newPipeListener()
	srv := NewServer(pl, echoPolicy{}, Config{WriteTimeout: 50 * time.Millisecond})
	defer srv.Close()

	conn, err := pl.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One decide request, then stall: never read the response.
	if _, err := conn.Write(appendRequest(nil, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.WriteDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never dropped the stalled reader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The drop must reclaim the connection goroutine.
	for srv.ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection still active after write drop")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientReconnectsAfterServerReturns: a dead service costs decisions
// the fallback, not the client — when the service comes back, remote
// decisions resume.
func TestClientReconnectsAfterServerReturns(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := Dial(addr, constPolicy{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Decide([]float64{1})
	srv.Close()
	for i := 0; i < 3; i++ {
		cl.Decide([]float64{1}) // fail, redial next time
	}

	srv2, err := ServeConfig(addr, echoPolicy{}, Config{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	remoteBefore := cl.RemoteDecisions()
	deadline := time.Now().Add(10 * time.Second)
	for cl.RemoteDecisions() == remoteBefore {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the returned service")
		}
		cl.Decide([]float64{1})
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerSurvivesPanickingPolicy: a panic costs the offending connection
// only; the listener keeps serving and the client recovers by redialing.
func TestServerSurvivesPanickingPolicy(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", panicPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), constPolicy{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if mu, _ := cl.Decide([]float64{1}); mu != 0.5 {
		t.Fatalf("healthy decision answered %v, want 0.5", mu)
	}
	// Poisoned state: the server connection dies mid-request, the client
	// must fall back rather than hang or crash.
	if mu, delta := cl.Decide([]float64{-1}); mu != 0.25 || delta != 0.75 {
		t.Fatalf("poisoned decision (%v, %v), want the fallback (0.25, 0.75)", mu, delta)
	}
	if got := srv.Panics(); got != 1 {
		t.Fatalf("server recorded %d panics, want 1", got)
	}
	// The service itself must still be alive for a fresh (healthy) request.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if mu, _ := cl.Decide([]float64{1}); mu == 0.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never answered again after a policy panic")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDropsHungConnection: a connected peer that never sends a request
// must be reclaimed by the read deadline, not hold its goroutine forever.
func TestServerDropsHungConnection(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReadTimeout(50 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must close the connection, observed here as
	// EOF (or a reset) on our read within a few timeout periods.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil || err == io.ErrNoProgress {
		t.Fatalf("hung connection read returned %v, want closed-by-server", err)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the hung connection")
	}
}

// TestFramingPipelinedAndDribbled: the server reads its request stream
// through a buffered reader, so frame boundaries must not depend on how the
// bytes arrive. Three frames in one Write are answered in order, and one
// frame dribbled a byte at a time is answered once it is whole.
func TestFramingPipelinedAndDribbled(t *testing.T) {
	srv, err := ServeConfig("127.0.0.1:0", echoPolicy{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	expect := func(what string, wantMu, wantDelta float64) {
		t.Helper()
		var buf [respSize]byte
		status, mu, delta, err := readResponse(conn, &buf)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if status != statusOK || mu != wantMu || delta != wantDelta {
			t.Fatalf("%s answered status %d (%v, %v), want OK (%v, %v)", what, status, mu, delta, wantMu, wantDelta)
		}
	}

	burst := appendRequest(nil, []float64{0.25, 0.5, -0.25})
	burst = appendRequest(burst, nil) // ping
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	expect("pipelined decide", 0.5, 3)
	expect("pipelined ping", 0, 0)

	for _, b := range appendRequest(nil, []float64{1, 2}) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	expect("dribbled decide", 3, 2)

	if srv.Decisions() != 2 {
		t.Fatalf("server counted %d decisions, want 2", srv.Decisions())
	}
}
