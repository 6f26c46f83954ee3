package agentrpc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Dial backoff bounds: the first retry after a failed dial waits a jittered
// dialBackoffBase, doubling per consecutive failure up to dialBackoffCap.
// Without the backoff, a dead service costs every decision a ~100 ms connect
// timeout — a 3000× stall of the 30 ms control loop turns into one stall
// every few seconds. Without the jitter, a fleet of clients restarting
// against a recovering server redials in lockstep and knocks it over again;
// each client draws its waits from its own deterministic (seeded) stream, so
// the retries desynchronize while staying reproducible.
const (
	dialBackoffBase = 100 * time.Millisecond
	dialBackoffCap  = 5 * time.Second
)

// errDialBackoff reports a redial suppressed by the backoff window; the
// caller serves the decision from the fallback policy without touching the
// network.
var errDialBackoff = errors.New("agentrpc: dial suppressed by backoff")

// Typed server responses: the stream stays usable, only this decision falls
// back. Both still count as failures toward the circuit breaker — a BUSY
// storm must trip it just like timeouts do, so a saturated service stops
// paying per-decision round trips.
var (
	errServerBusy = errors.New("agentrpc: server shed the request (BUSY)")
	errServerErr  = errors.New("agentrpc: server failed the request (ERR)")
)

// Circuit breaker states.
const (
	breakerClosed   = iota // healthy: every decision goes remote
	breakerOpen            // tripped: serve fallback instantly, no network
	breakerHalfOpen        // cooldown expired: one probe decision in flight
)

// Client defaults; see ClientConfig.
const (
	defaultClientTimeout   = 100 * time.Millisecond
	defaultBreakerTrip     = 5
	defaultBreakerCooldown = 250 * time.Millisecond
	defaultMaxPending      = 64
)

// ClientConfig tunes a Client. The zero value selects the defaults.
type ClientConfig struct {
	// Timeout is the per-decision transport deadline, covering the request
	// write and the response read.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (defaults to Timeout).
	DialTimeout time.Duration
	// BreakerTrip is the number of consecutive failures (timeouts, transport
	// errors, BUSY/ERR responses) after which the breaker opens.
	BreakerTrip int
	// BreakerCooldown is how long an open breaker serves the fallback
	// instantly before letting one half-open probe decision go remote.
	BreakerCooldown time.Duration
	// MaxPending bounds concurrent Decide callers: excess callers are served
	// from the fallback immediately instead of queueing behind a slow
	// server, so back-pressure never balloons into unbounded waiters.
	MaxPending int
	// JitterSeed seeds the deterministic dial-backoff jitter stream. Zero
	// derives a per-client seed from the address and a process-local
	// counter, so a fleet of zero-config clients still desynchronizes.
	JitterSeed uint64
}

func (c ClientConfig) withDefaults(addr string) ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = defaultClientTimeout
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = c.Timeout
	}
	if c.BreakerTrip <= 0 {
		c.BreakerTrip = defaultBreakerTrip
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = defaultBreakerCooldown
	}
	if c.MaxPending <= 0 {
		c.MaxPending = defaultMaxPending
	}
	if c.JitterSeed == 0 {
		h := fnv.New64a()
		h.Write([]byte(addr))
		c.JitterSeed = h.Sum64() ^ clientSeq.Add(1)<<32
		if c.JitterSeed == 0 {
			c.JitterSeed = 1
		}
	}
	return c
}

// clientSeq desynchronizes the default jitter seeds of same-address clients.
var clientSeq atomic.Uint64

// Client is a core.Policy backed by a remote inference daemon, with a local
// fallback policy for transport failures and a circuit breaker so a dead
// service costs zero network latency per decision.
type Client struct {
	addr     string
	fallback Policy
	cfg      ClientConfig

	// dialFn is the connection seam the chaos harness replaces with
	// fault-injecting wrappers.
	dialFn func(addr string, timeout time.Duration) (net.Conn, error)

	// pendingN counts in-flight Decide callers (bounded by cfg.MaxPending).
	pendingN atomic.Int64

	mu      sync.Mutex
	conn    net.Conn
	respBuf [respSize]byte
	reqBuf  []byte

	// Capped exponential dial backoff state (jittered; see jitterBackoff).
	rngState    uint64
	dialBackoff time.Duration
	nextDialAt  time.Time

	// Circuit breaker state.
	breaker     int
	consecFails int
	openUntil   time.Time

	// Stats for tests and monitoring.
	remoteDecisions   int64
	fallbackDecisions atomic.Int64
	dialAttempts      int64
	busyResponses     int64
	breakerTrips      int64
	breakerRecoveries int64
	shedDecisions     atomic.Int64

	// latencyHook, when non-nil, observes every Decide's round-trip wall
	// time and whether the remote service (vs the local fallback) answered.
	// The telemetry layer points it at a latency histogram.
	latencyHook func(d time.Duration, remote bool)
}

// Dial connects to a daemon with default ClientConfig. The fallback policy
// (required) answers while the service is unreachable.
func Dial(addr string, fallback Policy) (*Client, error) {
	return DialConfig(addr, fallback, ClientConfig{})
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
	cfg = cfg.withDefaults(addr)
	c := &Client{
		addr:     addr,
		fallback: fallback,
		cfg:      cfg,
		dialFn:   dialFn,
		rngState: cfg.JitterSeed,
	}
	if err := c.redial(); err != nil {
		return nil, fmt.Errorf("agentrpc: initial dial: %w", err)
	}
	return c, nil
}

// jitterBackoff draws the next wait from [d/2, d) using the client's
// deterministic splitmix64 stream.
func (c *Client) jitterBackoff(d time.Duration) time.Duration {
	c.rngState += 0x9e3779b97f4a7c15
	z := c.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / float64(uint64(1)<<53) // [0, 1)
	return d/2 + time.Duration(frac*float64(d/2))
}

func (c *Client) redial() error {
	if !c.nextDialAt.IsZero() && time.Now().Before(c.nextDialAt) {
		return errDialBackoff
	}
	c.dialAttempts++
	conn, err := c.dialFn(c.addr, c.cfg.DialTimeout)
	if err != nil {
		if c.dialBackoff == 0 {
			c.dialBackoff = dialBackoffBase
		} else if c.dialBackoff *= 2; c.dialBackoff > dialBackoffCap {
			c.dialBackoff = dialBackoffCap
		}
		c.nextDialAt = time.Now().Add(c.jitterBackoff(c.dialBackoff))
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // one request per control interval: latency over batching
	}
	c.conn = conn
	c.dialBackoff = 0
	c.nextDialAt = time.Time{}
	return nil
}

// DialAttempts reports how many times the client actually tried to connect
// (suppressed backoff attempts are not counted).
func (c *Client) DialAttempts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dialAttempts
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

// FallbackDecisions reports how many decisions fell back locally (including
// shed ones). Every Decide is counted exactly once: RemoteDecisions +
// FallbackDecisions equals the number of calls.
func (c *Client) FallbackDecisions() int64 { return c.fallbackDecisions.Load() }

// BusyResponses reports decisions the daemon answered with BUSY.
func (c *Client) BusyResponses() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busyResponses
}

// BreakerTrips reports closed→open breaker transitions.
func (c *Client) BreakerTrips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerTrips
}

// BreakerRecoveries reports half-open probes that found the service healthy
// and closed the breaker again.
func (c *Client) BreakerRecoveries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakerRecoveries
}

// ShedDecisions reports decisions served from the fallback because more
// than MaxPending callers were already in flight.
func (c *Client) ShedDecisions() int64 { return c.shedDecisions.Load() }

// BreakerOpen reports whether the breaker is currently open (fast-failing).
func (c *Client) BreakerOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker == breakerOpen && time.Now().Before(c.openUntil)
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
// back to the local policy on any error — and instantly, without touching
// the network, while the breaker is open or the in-flight bound is hit.
func (c *Client) Decide(state []float64) (float64, float64) {
	if n := c.pendingN.Add(1); n > int64(c.cfg.MaxPending) {
		c.pendingN.Add(-1)
		c.shedDecisions.Add(1)
		c.fallbackDecisions.Add(1)
		return c.fallback.Decide(state)
	}
	defer c.pendingN.Add(-1)

	c.mu.Lock()
	defer c.mu.Unlock()
	var start time.Time
	if c.latencyHook != nil {
		start = time.Now()
	}

	// Breaker gate: open serves the fallback with zero network latency;
	// once the cooldown expires this call becomes the half-open probe.
	if c.breaker == breakerOpen {
		if time.Now().Before(c.openUntil) {
			c.fallbackDecisions.Add(1)
			mu, delta := c.fallback.Decide(state)
			if c.latencyHook != nil {
				c.latencyHook(time.Since(start), false)
			}
			return mu, delta
		}
		c.breaker = breakerHalfOpen
	}

	mu, delta, err := c.decideRemote(state)
	if err != nil {
		c.onFailure(err)
		c.fallbackDecisions.Add(1)
		mu, delta = c.fallback.Decide(state)
		if c.latencyHook != nil {
			c.latencyHook(time.Since(start), false)
		}
		return mu, delta
	}
	c.onSuccess()
	c.remoteDecisions++
	if c.latencyHook != nil {
		c.latencyHook(time.Since(start), true)
	}
	return mu, delta
}

// onFailure updates the breaker after a failed remote decision. Typed
// BUSY/ERR responses leave the (healthy, in-sync) stream open; everything
// else poisons the connection.
func (c *Client) onFailure(err error) {
	switch {
	case errors.Is(err, errServerBusy):
		c.busyResponses++
	case errors.Is(err, errServerErr):
	default:
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
	}
	c.consecFails++
	if c.breaker == breakerHalfOpen || c.consecFails >= c.cfg.BreakerTrip {
		if c.breaker == breakerClosed {
			c.breakerTrips++
		}
		c.breaker = breakerOpen
		c.openUntil = time.Now().Add(c.cfg.BreakerCooldown)
	}
}

// onSuccess closes the breaker after a healthy remote decision.
func (c *Client) onSuccess() {
	if c.breaker == breakerHalfOpen {
		c.breakerRecoveries++
	}
	c.breaker = breakerClosed
	c.consecFails = 0
	c.openUntil = time.Time{}
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
	deadline := time.Now().Add(c.cfg.Timeout)
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
