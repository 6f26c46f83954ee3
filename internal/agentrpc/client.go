package agentrpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Typed server responses: the stream stays usable, only this decision falls
// back.
var (
	errServerBusy = errors.New("agentrpc: server shed the request (BUSY)")
	errServerErr  = errors.New("agentrpc: server failed the request (ERR)")
)

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Timeout bounds each dial and each decision's request write plus
	// response read; it must be positive. Dial uses 100 ms, a few control
	// intervals, so a dead service costs a flow one late decision, not a
	// stalled datapath.
	Timeout time.Duration
}

// Client is a core.Policy backed by a remote inference daemon, with a local
// fallback policy that answers every decision the daemon does not.
type Client struct {
	addr     string
	fallback Policy
	timeout  time.Duration

	// dialFn is the connection seam the chaos harness replaces with
	// fault-injecting wrappers.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)

	mu      sync.Mutex
	conn    net.Conn
	respBuf [respSize]byte
	reqBuf  []byte

	// Stats for tests and monitoring.
	remoteDecisions   int64
	fallbackDecisions int64
	busyResponses     int64

	// latencyHook, when non-nil, observes every Decide's round-trip wall
	// time and whether the remote service (vs the local fallback) answered.
	// The telemetry layer points it at a latency histogram.
	latencyHook func(d time.Duration, remote bool)
}

// Dial connects to a daemon with a 100 ms Timeout. The fallback policy
// (required) answers while the service is unreachable.
func Dial(addr string, fallback Policy) (*Client, error) {
	return DialConfig(addr, fallback, ClientConfig{Timeout: 100 * time.Millisecond})
}

// DialConfig connects to a daemon with the given tuning.
func DialConfig(addr string, fallback Policy, cfg ClientConfig) (*Client, error) {
	return dialWith(addr, fallback, cfg, tcpDial)
}

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// dialWith is the constructor behind DialConfig; the chaos harness injects
// fault-wrapping dial functions here.
func dialWith(addr string, fallback Policy, cfg ClientConfig, dialFn func(string, time.Duration) (net.Conn, error)) (*Client, error) {
	if fallback == nil {
		return nil, errors.New("agentrpc: nil fallback policy")
	}
	if cfg.Timeout <= 0 {
		return nil, fmt.Errorf("agentrpc: client timeout %v is not positive", cfg.Timeout)
	}
	c := &Client{
		addr:     addr,
		fallback: fallback,
		timeout:  cfg.Timeout,
		dialFn:   dialFn,
	}
	if err := c.redial(); err != nil {
		return nil, fmt.Errorf("agentrpc: initial dial: %w", err)
	}
	return c, nil
}

func (c *Client) redial() error {
	conn, err := c.dialFn(c.addr, c.timeout)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // one request per control interval: latency over batching
	}
	c.conn = conn
	return nil
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// RemoteDecisions reports how many decisions the service answered.
func (c *Client) RemoteDecisions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remoteDecisions
}

// FallbackDecisions reports how many decisions fell back locally. Every
// Decide is counted exactly once: RemoteDecisions + FallbackDecisions equals
// the number of calls.
func (c *Client) FallbackDecisions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fallbackDecisions
}

// BusyResponses reports decisions the daemon answered with BUSY.
func (c *Client) BusyResponses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busyResponses
}

// SetLatencyHook registers fn to observe every Decide's wall-clock latency
// (nil detaches it). The hook runs with the client lock held; keep it
// cheap — a histogram observation, not I/O.
func (c *Client) SetLatencyHook(fn func(d time.Duration, remote bool)) {
	c.mu.Lock()
	c.latencyHook = fn
	c.mu.Unlock()
}

// Decide implements core.Policy: one round trip to the service, falling
// back to the local policy on any error. A transport error also drops the
// connection, and the next decision redials; typed BUSY/ERR responses leave
// the (in-sync) stream open.
func (c *Client) Decide(state []float64) (float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var start time.Time
	if c.latencyHook != nil {
		start = time.Now()
	}
	mu, delta, err := c.decideRemote(state)
	remote := err == nil
	if remote {
		c.remoteDecisions++
	} else {
		if errors.Is(err, errServerBusy) {
			c.busyResponses++
		} else if !errors.Is(err, errServerErr) && c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
		c.fallbackDecisions++
		mu, delta = c.fallback.Decide(state)
	}
	if c.latencyHook != nil {
		c.latencyHook(time.Since(start), remote)
	}
	return mu, delta
}

func (c *Client) decideRemote(state []float64) (float64, float64, error) {
	if len(state) > maxStateDim {
		return 0, 0, fmt.Errorf("state dim %d exceeds protocol max", len(state))
	}
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return 0, 0, err
		}
	}
	// One deadline covers the request write and the response read — the
	// per-decision transport budget.
	deadline := time.Now().Add(c.timeout)
	if err := c.conn.SetDeadline(deadline); err != nil {
		return 0, 0, err
	}
	c.reqBuf = appendRequest(c.reqBuf[:0], state)
	if _, err := c.conn.Write(c.reqBuf); err != nil {
		return 0, 0, err
	}
	status, mu, delta, err := readResponse(c.conn, &c.respBuf)
	if err != nil {
		return 0, 0, err
	}
	switch status {
	case statusOK:
	case statusBusy:
		return 0, 0, errServerBusy
	case statusErr:
		return 0, 0, errServerErr
	default:
		return 0, 0, fmt.Errorf("agentrpc: unknown response status %#x", status)
	}
	if !finite(mu) || !finite(delta) {
		return 0, 0, errors.New("agentrpc: non-finite response")
	}
	return mu, delta, nil
}
