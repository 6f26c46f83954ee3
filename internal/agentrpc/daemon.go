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
// half-closed peer holding a goroutine hostage.
const defaultReadTimeout = 2 * time.Minute

// Serving defaults; see Config.
const (
	defaultMaxBatch     = 64
	defaultWriteTimeout = 2 * time.Second
	defaultWaitTimeout  = time.Second
)

// Config tunes the inference daemon. The zero value selects the defaults.
type Config struct {
	// MaxBatch is the largest minibatch one policy execution may serve. It
	// bounds the batcher's scratch and the latency of a single execution;
	// requests beyond it wait for the next execution.
	MaxBatch int
	// MaxQueue bounds the admitted-but-unexecuted request queue. A request
	// arriving with the queue full is shed with a typed BUSY response
	// instead of waiting. Zero selects 4×MaxBatch; negative means no queue
	// at all (every request not immediately claimed by the batcher is shed
	// — a test knob for BUSY storms).
	MaxQueue int
	// ReadTimeout is the per-connection idle limit between requests
	// (defaultReadTimeout when zero; SetReadTimeout(0) disables it).
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write, so a client that stops
	// draining its socket costs one connection, not a goroutine forever.
	WriteTimeout time.Duration
	// WaitTimeout bounds how long a connection waits for the batcher to
	// answer its request before giving up with a typed ERR response — the
	// per-request serving deadline.
	WaitTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = defaultMaxBatch
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxBatch
	case c.MaxQueue < 0:
		c.MaxQueue = 0 // unbuffered: shed unless the batcher is receiving
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = defaultReadTimeout
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
	id    int64
	p     Policy
	batch BatchDecider // non-nil when p implements the batched fast path
	dim   int          // batch input dimension (0 when batch is nil)
	prev  *policyVersion
}

func newPolicyVersion(id int64, p Policy, prev *policyVersion) *policyVersion {
	pv := &policyVersion{id: id, p: p, prev: prev}
	if bd, ok := p.(BatchDecider); ok {
		pv.batch = bd
		pv.dim = bd.InputDim()
	}
	return pv
}

// pending is one admitted request travelling from a connection goroutine to
// the batcher and back. The connection goroutine owns it except between
// enqueue and the done signal; if the wait deadline expires first, the
// goroutine abandons it (the batcher's eventual done send lands in the
// buffered channel and the object is garbage).
type pending struct {
	state     []float64
	mu, delta float64
	status    byte
	done      chan struct{}
}

func newPending() *pending {
	return &pending{state: make([]float64, 0, 64), done: make(chan struct{}, 1)}
}

// Server is the inference daemon around a hot-swappable Policy.
type Server struct {
	cfg   Config // immutable after withDefaults (ReadTimeout lives under mu)
	ln    net.Listener
	pv    atomic.Pointer[policyVersion]
	queue chan *pending

	mu          sync.Mutex
	closed      bool
	draining    bool
	readTimeout time.Duration
	conns       map[net.Conn]struct{}

	connWG     sync.WaitGroup
	batchDone  chan struct{}
	closeQueue sync.Once

	// Serving counters (see the accessor docs).
	decisions       atomic.Int64
	batches         atomic.Int64
	batchedRequests atomic.Int64
	shed            atomic.Int64
	panics          atomic.Int64
	nonfinite       atomic.Int64
	swaps           atomic.Int64
	rollbacks       atomic.Int64
	timeouts        atomic.Int64
	writeDrops      atomic.Int64
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
		queue:       make(chan *pending, cfg.MaxQueue),
		readTimeout: cfg.ReadTimeout,
		conns:       map[net.Conn]struct{}{},
		batchDone:   make(chan struct{}),
	}
	s.pv.Store(newPolicyVersion(1, p, nil))
	go s.batchLoop()
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

// Batches reports how many policy executions served those decisions; the
// coalescing ratio is BatchedRequests()/Batches().
func (s *Server) Batches() int64 { return s.batches.Load() }

// BatchedRequests reports how many requests entered batch execution.
func (s *Server) BatchedRequests() int64 { return s.batchedRequests.Load() }

// Shed reports how many requests admission control answered with BUSY.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Panics reports how many batch executions died in a panicking policy (each
// costs the batch a typed ERR response, never the daemon).
func (s *Server) Panics() int64 { return s.panics.Load() }

// NonFinite reports decisions suppressed by the non-finite output guard.
func (s *Server) NonFinite() int64 { return s.nonfinite.Load() }

// Swaps reports successful policy hot-swaps.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// Rollbacks reports automatic reversions to the previous policy version
// after a swapped-in policy tripped the non-finite guard.
func (s *Server) Rollbacks() int64 { return s.rollbacks.Load() }

// Timeouts reports requests whose batch execution outlived WaitTimeout.
func (s *Server) Timeouts() int64 { return s.timeouts.Load() }

// WriteDrops reports connections dropped by the response write deadline.
func (s *Server) WriteDrops() int64 { return s.writeDrops.Load() }

// PolicyVersion reports the id of the currently serving policy (the version
// installed at construction is 1; every successful Swap increments it).
func (s *Server) PolicyVersion() int64 { return s.pv.Load().id }

// QueueDepth reports how many admitted requests await batch execution.
func (s *Server) QueueDepth() int { return len(s.queue) }

// ActiveConns reports the number of currently served connections.
func (s *Server) ActiveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Swap installs a new policy version after a health probe: the candidate
// must answer a canonical probe batch with finite outputs and no panic, or
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
		next := newPolicyVersion(cur.id+1, p, cur)
		if s.pv.CompareAndSwap(cur, next) {
			s.swaps.Add(1)
			return next.id, nil
		}
	}
}

// probePolicy exercises a candidate policy on canonical states (zeros, a
// small positive ramp, an alternating ± pattern) through both the scalar
// and, when implemented, the batched path. Any panic or non-finite output
// fails the probe.
func probePolicy(p Policy) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe panicked: %v", r)
		}
	}()
	dim := 16
	if bd, ok := p.(BatchDecider); ok {
		if d := bd.InputDim(); d > 0 && d <= maxStateDim {
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
			return fmt.Errorf("non-finite scalar decision (%v, %v)", mu, delta)
		}
	}
	if bd, ok := p.(BatchDecider); ok {
		x := make([]float64, 0, len(probes)*dim)
		for _, st := range probes {
			x = append(x, st...)
		}
		mus := make([]float64, len(probes))
		deltas := make([]float64, len(probes))
		bd.DecideBatch(x, len(probes), mus, deltas)
		for i := range mus {
			if !finite(mus[i]) || !finite(deltas[i]) {
				return fmt.Errorf("non-finite batch decision row %d (%v, %v)", i, mus[i], deltas[i])
			}
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

// Close abruptly stops the daemon: listener and connections are torn down,
// then the batcher is stopped once every connection goroutine has exited.
// In-flight requests still get their done signal (the batcher outlives the
// connections), their responses just have nowhere to go.
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
	s.closeQueue.Do(func() { close(s.queue) })
	<-s.batchDone
	return err
}

// Drain shuts the daemon down gracefully: stop accepting, let each
// connection finish (and be answered for) its in-flight request, flush the
// remaining batches, then close. Connections blocked reading their next
// request are released immediately by an expired read deadline — a half-read
// frame is not yet in flight. Connections that have not finished within
// timeout are closed forcibly.
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
	s.closeQueue.Do(func() { close(s.queue) })
	<-s.batchDone
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
// BUSY), wait for the batcher under the serving deadline, write the response
// under the write deadline. One request is in flight per connection, so the
// pending object and its state buffer are reused across requests.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connWG.Done()
	}()
	dec := newRequestReader(conn)
	p := newPending()
	wait := time.NewTimer(time.Hour)
	if !wait.Stop() {
		<-wait.C
	}
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
		p.state = append(p.state[:0], f.state...)

		// Admission control: a full queue sheds with a typed BUSY response
		// instead of stalling the datapath's control loop.
		select {
		case s.queue <- p:
		default:
			s.shed.Add(1)
			if !s.writeResponse(conn, &resp, statusBusy, 0, 0) {
				return
			}
			continue
		}

		// The serving deadline: if the batcher cannot answer in time, give
		// up with a typed ERR. The batcher still owns the abandoned pending
		// (its late done signal lands in the buffered channel), so the
		// connection switches to a fresh one.
		wait.Reset(s.cfg.WaitTimeout)
		status, mu, delta := statusErr, 0.0, 0.0
		select {
		case <-p.done:
			status, mu, delta = p.status, p.mu, p.delta
			if !wait.Stop() {
				<-wait.C
			}
		case <-wait.C:
			s.timeouts.Add(1)
			p = newPending()
		}
		if status == statusOK {
			s.decisions.Add(1)
		}
		if !s.writeResponse(conn, &resp, status, mu, delta) {
			return
		}
	}
}

// writeResponse writes one response frame under the write deadline. It
// reports false when the connection must be dropped — a peer that stops
// draining its socket costs one connection, not a wedged goroutine.
func (s *Server) writeResponse(conn net.Conn, buf *[]byte, status byte, mu, delta float64) bool {
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return false
	}
	*buf = appendResponse((*buf)[:0], status, mu, delta)
	if _, err := conn.Write(*buf); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			s.writeDrops.Add(1)
		}
		return false
	}
	return true
}

// batchLoop is the daemon's single executor. Batching is work-conserving:
// block for the first request, take whatever else is already queued (up to
// MaxBatch), execute. Nothing waits for company — requests that arrive
// during an execution are the next batch. It exits when the queue is closed
// (after every connection goroutine has), flushing whatever is still queued
// first.
func (s *Server) batchLoop() {
	defer close(s.batchDone)
	cfg := s.cfg
	batch := make([]*pending, 0, cfg.MaxBatch)
	xbuf := make([]float64, 0, cfg.MaxBatch*64)
	mus := make([]float64, cfg.MaxBatch)
	deltas := make([]float64, cfg.MaxBatch)
	for {
		p, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], p)
		// The batcher is the queue's only receiver, so whatever len reports
		// is there to take without blocking (also after the queue is closed).
		for len(batch) < cfg.MaxBatch && len(s.queue) > 0 {
			batch = append(batch, <-s.queue)
		}
		xbuf = s.execute(batch, xbuf, mus, deltas)
	}
}

// execute answers one batch against the current policy version. A panicking
// policy costs the batch typed ERR responses, never the daemon; a non-finite
// decision is suppressed (ERR) and, when the serving version was hot-swapped
// in, automatically rolled back to the version it replaced.
func (s *Server) execute(batch []*pending, xbuf, mus, deltas []float64) []float64 {
	pv := s.pv.Load()
	answered := 0
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			for _, p := range batch[answered:] {
				p.status = statusErr
				p.done <- struct{}{}
			}
		}
	}()
	s.batches.Add(1)
	s.batchedRequests.Add(int64(len(batch)))

	if pv.batch != nil && sameDim(batch, pv.dim) {
		rows := len(batch)
		xbuf = xbuf[:0]
		for _, p := range batch {
			xbuf = append(xbuf, p.state...)
		}
		pv.batch.DecideBatch(xbuf, rows, mus[:rows], deltas[:rows])
		for i, p := range batch {
			s.finish(p, pv, mus[i], deltas[i])
			answered++
		}
		return xbuf
	}
	for _, p := range batch {
		mu, delta := pv.p.Decide(p.state)
		s.finish(p, pv, mu, delta)
		answered++
	}
	return xbuf
}

func (s *Server) finish(p *pending, pv *policyVersion, mu, delta float64) {
	if !finite(mu) || !finite(delta) {
		s.nonfinite.Add(1)
		s.rollbackFrom(pv)
		p.status = statusErr
	} else {
		p.status = statusOK
		p.mu, p.delta = mu, delta
	}
	p.done <- struct{}{}
}

func sameDim(batch []*pending, dim int) bool {
	if dim <= 0 {
		return false
	}
	for _, p := range batch {
		if len(p.state) != dim {
			return false
		}
	}
	return true
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
