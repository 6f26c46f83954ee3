package agentrpc

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// defaultReadTimeout bounds how long a connection may sit idle between
// requests before the server reclaims it. Healthy datapaths decide every
// control interval (~30 ms); a connection silent for minutes is a hung or
// half-closed peer holding a goroutine hostage. SetReadTimeout overrides it.
const defaultReadTimeout = 2 * time.Minute

// Serving defaults; see Config.
const (
	defaultMaxInFlight  = 256
	defaultWriteTimeout = 2 * time.Second
	defaultWaitTimeout  = time.Second
)

// Config tunes the inference daemon. The zero value selects the defaults.
type Config struct {
	// MaxInFlight bounds the decisions executing at once. A decision
	// arriving while that many are executing is shed with a typed BUSY
	// response instead of waiting. Zero selects 256.
	MaxInFlight int
	// WriteTimeout bounds each response write, so a client that stops
	// draining its socket costs one connection, not a goroutine forever.
	WriteTimeout time.Duration
	// WaitTimeout bounds how long a decision's policy execution may run
	// before its connection answers with a typed ERR response — the
	// per-request serving deadline.
	WaitTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = defaultMaxInFlight
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = defaultWaitTimeout
	}
	return c
}

// ErrUnhealthyPolicy reports a Swap candidate that failed the health probe
// (panicked or produced non-finite output); the serving version is kept.
var ErrUnhealthyPolicy = errors.New("agentrpc: policy failed the health probe")

// policyVersion is one immutable entry in the hot-swap chain. prev links to
// the version it replaced so a runtime non-finite guard can roll back.
type policyVersion struct {
	id   int64
	p    Policy
	prev *policyVersion
}

// errFrame is the ERR response a serving-deadline watchdog writes. It is
// built once and only read, so watchdogs share it.
var errFrame = appendResponse(nil, statusErr, 0, 0)

// Server is the inference daemon around a hot-swappable Policy.
type Server struct {
	cfg Config // immutable after withDefaults
	ln  net.Listener
	pv  atomic.Pointer[policyVersion]

	mu          sync.Mutex
	closed      bool
	draining    bool
	readTimeout time.Duration
	conns       map[net.Conn]struct{}

	connWG sync.WaitGroup

	// Serving counters (see the accessor docs).
	inflight   atomic.Int64
	decisions  atomic.Int64
	executions atomic.Int64
	shed       atomic.Int64
	panics     atomic.Int64
	nonfinite  atomic.Int64
	swaps      atomic.Int64
	rollbacks  atomic.Int64
	timeouts   atomic.Int64
	writeDrops atomic.Int64
}

// ServeConfig starts a daemon on addr with the given tuning.
func ServeConfig(addr string, p Policy, cfg Config) (*Server, error) {
	if p == nil {
		return nil, errors.New("agentrpc: nil policy")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(ln, p, cfg), nil
}

// NewServer runs a daemon over an existing listener (chaos tests inject
// fault-wrapped and in-memory listeners here). The server owns ln.
func NewServer(ln net.Listener, p Policy, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		ln:          ln,
		readTimeout: defaultReadTimeout,
		conns:       map[net.Conn]struct{}{},
	}
	s.pv.Store(&policyVersion{id: 1, p: p})
	go s.acceptLoop()
	return s
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReadTimeout changes the per-request idle limit (0 disables it). It
// applies to connections accepted after the call.
func (s *Server) SetReadTimeout(d time.Duration) {
	s.mu.Lock()
	s.readTimeout = d
	s.mu.Unlock()
}

// Decisions reports how many inference requests have been answered OK.
func (s *Server) Decisions() int64 { return s.decisions.Load() }

// Batches reports how many policy executions the daemon has run. Every
// decision runs alone on its connection's goroutine, so this counts one per
// admitted decision.
func (s *Server) Batches() int64 { return s.executions.Load() }

// BatchedRequests reports how many decisions entered policy execution; it
// equals Batches.
func (s *Server) BatchedRequests() int64 { return s.executions.Load() }

// Shed reports how many requests admission control answered with BUSY.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Panics reports how many policy executions died in a panicking policy (each
// costs its decision a typed ERR response, never the daemon).
func (s *Server) Panics() int64 { return s.panics.Load() }

// NonFinite reports decisions suppressed by the non-finite output guard.
func (s *Server) NonFinite() int64 { return s.nonfinite.Load() }

// Swaps reports successful policy hot-swaps.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// Rollbacks reports automatic reversions to the previous policy version
// after a swapped-in policy tripped the non-finite guard.
func (s *Server) Rollbacks() int64 { return s.rollbacks.Load() }

// Timeouts reports decisions whose policy execution outlived WaitTimeout.
func (s *Server) Timeouts() int64 { return s.timeouts.Load() }

// WriteDrops reports connections dropped by the response write deadline.
func (s *Server) WriteDrops() int64 { return s.writeDrops.Load() }

// PolicyVersion reports the id of the currently serving policy (the version
// installed at construction is 1; every successful Swap increments it).
func (s *Server) PolicyVersion() int64 { return s.pv.Load().id }

// QueueDepth reports the decisions admitted whose policy execution has not
// returned yet (a decision the serving deadline answered with ERR counts
// until it does).
func (s *Server) QueueDepth() int { return int(s.inflight.Load()) }

// ActiveConns reports the number of currently served connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Swap installs a new policy version after a health probe: the candidate
// must answer canonical probe states with finite outputs and no panic, or
// the swap is refused with ErrUnhealthyPolicy and the serving version is
// untouched. On success the new version starts serving immediately and the
// returned id identifies it; the previous version is retained for automatic
// rollback should the runtime non-finite guard trip.
func (s *Server) Swap(p Policy) (int64, error) {
	if p == nil {
		return 0, errors.New("agentrpc: nil policy")
	}
	if err := probePolicy(p); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrUnhealthyPolicy, err)
	}
	for {
		cur := s.pv.Load()
		next := &policyVersion{id: cur.id + 1, p: p, prev: cur}
		if s.pv.CompareAndSwap(cur, next) {
			s.swaps.Add(1)
			return next.id, nil
		}
	}
}

// probePolicy exercises a candidate policy on canonical states (zeros, a
// small positive ramp, an alternating ± pattern), as wide as the policy's
// InputDim when it reports one and 16 values otherwise. Any panic or
// non-finite output fails the probe.
func probePolicy(p Policy) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe panicked: %v", r)
		}
	}()
	dim := 16
	if sized, ok := p.(interface{ InputDim() int }); ok {
		if d := sized.InputDim(); d > 0 && d <= maxStateDim {
			dim = d
		}
	}
	probes := make([][]float64, 3)
	for i := range probes {
		probes[i] = make([]float64, dim)
	}
	for j := 0; j < dim; j++ {
		probes[1][j] = 0.01 * float64(j+1)
		probes[2][j] = 0.5
		if j%2 == 1 {
			probes[2][j] = -0.5
		}
	}
	for _, st := range probes {
		mu, delta := p.Decide(st)
		if !finite(mu) || !finite(delta) {
			return fmt.Errorf("non-finite decision (%v, %v)", mu, delta)
		}
	}
	return nil
}

// rollbackFrom reverts to the version pv replaced. A CAS guards against
// racing rollbacks and concurrent Swaps; the founding version (no prev) is
// never rolled back — with nowhere to go, the guard keeps answering ERR and
// clients fall back locally.
func (s *Server) rollbackFrom(pv *policyVersion) {
	if pv.prev == nil {
		return
	}
	if s.pv.CompareAndSwap(pv, pv.prev) {
		s.rollbacks.Add(1)
	}
}

// Close abruptly stops the daemon: the listener and every connection are
// torn down, and Close returns once each connection goroutine has exited —
// a decision inside the policy finishes first, its response just has
// nowhere to go.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.connWG.Wait()
	return err
}

// Drain shuts the daemon down gracefully: stop accepting, let each
// connection finish (and be answered for) its in-flight decision, then
// close. Connections blocked reading their next request are released
// immediately by an expired read deadline — a half-read frame is not yet in
// flight. Connections that have not finished within timeout are closed
// forcibly.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	err := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn owns one connection: read a frame, admit it (or shed with
// BUSY), run the policy on this goroutine, write the response under the
// write deadline. Decisions of different connections run at once, each on
// its own goroutine; one request is in flight per connection, so the
// buffers and the deadline watchdog are reused across requests.
//
// The watchdog enforces the serving deadline: if an execution outlives
// WaitTimeout, it answers ERR on the connection's behalf. An execution
// that returns to find the watchdog fired (Stop reports false) waits for
// that write and sends nothing of its own — so a wedged policy pins one
// connection, never another client's decisions.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connWG.Done()
	}()
	dec := newRequestReader(conn)
	late := make(chan bool, 1) // the watchdog's ERR write: still connected?
	watchdog := time.AfterFunc(time.Hour, func() {
		s.timeouts.Add(1)
		late <- s.writeFrame(conn, errFrame)
	})
	watchdog.Stop()
	var resp []byte
	for {
		// The deadline is set under the same lock Drain uses to expire every
		// connection's read: either this loop observes draining and returns,
		// or Drain's immediate deadline lands after ours and wins.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return
		}
		var deadline time.Time // zero clears any previous deadline
		if s.readTimeout > 0 {
			deadline = time.Now().Add(s.readTimeout)
		}
		err := conn.SetReadDeadline(deadline)
		s.mu.Unlock()
		if err != nil {
			return
		}
		f, err := dec.next()
		if err != nil {
			return // io error, idle timeout, drain, or protocol violation
		}
		if f.kind == framePing {
			if !s.writeResponse(conn, &resp, statusOK, 0, 0) {
				return
			}
			continue
		}

		// Admission control: with MaxInFlight decisions already executing,
		// shed with a typed BUSY response instead of stalling the
		// datapath's control loop.
		if s.inflight.Add(1) > int64(s.cfg.MaxInFlight) {
			s.inflight.Add(-1)
			s.shed.Add(1)
			if !s.writeResponse(conn, &resp, statusBusy, 0, 0) {
				return
			}
			continue
		}
		watchdog.Reset(s.cfg.WaitTimeout)
		status, mu, delta := s.execute(f.state)
		s.inflight.Add(-1)
		if !watchdog.Stop() {
			if !<-late {
				return
			}
			continue
		}
		if status == statusOK {
			s.decisions.Add(1)
		}
		if !s.writeResponse(conn, &resp, status, mu, delta) {
			return
		}
	}
}

// writeResponse writes one response frame under the write deadline,
// encoding it into buf.
func (s *Server) writeResponse(conn net.Conn, buf *[]byte, status byte, mu, delta float64) bool {
	*buf = appendResponse((*buf)[:0], status, mu, delta)
	return s.writeFrame(conn, *buf)
}

// writeFrame writes one encoded response under the write deadline. It
// reports false when the connection must be dropped — a peer that stops
// draining its socket costs one connection, not a wedged goroutine.
func (s *Server) writeFrame(conn net.Conn, frame []byte) bool {
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return false
	}
	if _, err := conn.Write(frame); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			s.writeDrops.Add(1)
		}
		return false
	}
	return true
}

// execute answers one decision against the current policy version. A
// panicking policy costs the decision a typed ERR response, never the
// daemon; a non-finite decision is suppressed (ERR) and, when the serving
// version was hot-swapped in, automatically rolled back to the version it
// replaced.
func (s *Server) execute(state []float64) (status byte, mu, delta float64) {
	pv := s.pv.Load()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			status, mu, delta = statusErr, 0, 0
		}
	}()
	s.executions.Add(1)
	mu, delta = pv.p.Decide(state)
	if !finite(mu) || !finite(delta) {
		s.nonfinite.Add(1)
		s.rollbackFrom(pv)
		return statusErr, 0, 0
	}
	return statusOK, mu, delta
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
