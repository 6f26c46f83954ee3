// Package netsim is a deterministic packet-level network emulator built on
// the discrete-event engine in internal/simcore. It plays the role Mahimahi
// and Pantheon-tunnel play in the paper (§4): bottleneck links with DropTail
// byte buffers, configurable capacity (fixed or trace-driven), one-way
// propagation delay, i.i.d. random loss, multi-hop paths, and paced
// congestion-window-limited senders that drive cc.Algorithm implementations
// with per-ACK and per-interval feedback.
//
// A simulation is assembled from a Network, Links, and Flows:
//
//	net := netsim.New(netsim.Config{Seed: 1})
//	link := net.AddLink(netsim.LinkConfig{Rate: 100e6, Delay: 15 * time.Millisecond, BufferBytes: 750_000})
//	net.AddFlow(netsim.FlowConfig{Name: "f0", Path: []*netsim.Link{link}, CC: func() cc.Algorithm { return cubic.New() }})
//	net.Run(120 * time.Second)
//
// All randomness derives from the Network seed, so runs are reproducible.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/simcore"
)

// Tap observes packet- and interval-level emulator events. All methods run
// synchronously on the simulation goroutine at the instant the event occurs,
// so implementations may read the current state of the flow, link, and
// engine (Flow.CC(), Link.QueueBytes(), Network.Now(), ...). The primary
// implementation is the runtime invariant checker in internal/simcheck;
// taps cost one nil-check per packet event when disabled.
type Tap interface {
	// PacketSent fires when a flow transmits a packet.
	PacketSent(f *Flow, bytes int)
	// PacketAcked fires when a packet's acknowledgment reaches the sender
	// (even if the flow has already stopped sending).
	PacketAcked(f *Flow, bytes int, rtt time.Duration)
	// PacketLost fires when the sender detects a packet loss.
	PacketLost(f *Flow, bytes int)
	// QueueEnqueued fires after a packet joins a link's DropTail queue.
	QueueEnqueued(l *Link, bytes int)
	// QueueDeparted fires after a packet finishes serialization and leaves
	// the queue.
	QueueDeparted(l *Link, bytes int)
	// QueueDropped fires when a link discards an arriving packet; random
	// distinguishes loss-rate drops from buffer overflow.
	QueueDropped(l *Link, bytes int, random bool)
	// IntervalDelivered fires when send-attributed interval statistics are
	// handed to an interval-driven controller.
	IntervalDelivered(f *Flow, s cc.IntervalStats)
	// SampleRecorded fires when a flow appends one point to its recorded
	// time series (every RecordInterval while the flow is active). It is
	// the streaming seam for fairness metrics: the per-instant throughput
	// samples it carries are exactly what metrics.TimewiseJain groups
	// post-hoc.
	SampleRecorded(f *Flow, p SeriesPoint)
	// FaultInjected fires when a link's fault injector acts on a packet of
	// flow f: for FaultBurstLoss and FaultBlackout the packet was dropped
	// before queueing (the sender's loss detection is engaged), for
	// FaultReorder its enqueue was deferred, for FaultDuplicate a copy
	// joined the queue, and for FaultJitter its propagation gained a delay
	// spike.
	FaultInjected(l *Link, f *Flow, kind FaultKind, bytes int)
}

// NopTap implements every Tap callback as a no-op. Embed it in an observer
// and define only the callbacks that observer cares about.
type NopTap struct{}

func (NopTap) PacketSent(*Flow, int)                      {}
func (NopTap) PacketAcked(*Flow, int, time.Duration)      {}
func (NopTap) PacketLost(*Flow, int)                      {}
func (NopTap) QueueEnqueued(*Link, int)                   {}
func (NopTap) QueueDeparted(*Link, int)                   {}
func (NopTap) QueueDropped(*Link, int, bool)              {}
func (NopTap) IntervalDelivered(*Flow, cc.IntervalStats)  {}
func (NopTap) SampleRecorded(*Flow, SeriesPoint)          {}
func (NopTap) FaultInjected(*Link, *Flow, FaultKind, int) {}

// Config parameterizes a Network.
type Config struct {
	// Seed drives every random component (loss, traces via callers, CC
	// exploration if the CC asks the flow for an RNG).
	Seed uint64
	// RecordInterval is the granularity of per-flow time series
	// (default 200 ms).
	RecordInterval time.Duration
}

// Network owns the event engine, links, and flows of one simulation.
type Network struct {
	eng   *simcore.Engine
	rng   *simcore.RNG
	cfg   Config
	links []*Link
	flows []*Flow
	tap   Tap

	// Window hook (SetWindowHook): a virtual-time boundary observer that
	// both execution modes honor — sequentially via a chained engine event
	// hook, sharded via the coordinator's barrier-synchronized window hook.
	whDue       func(at time.Duration) bool
	whFire      func(end time.Duration)
	whInstalled bool // sequential engine-hook chain installed (once)

	// seqArena is the packet pool every flow and link starts wired to; a
	// sharded run replaces those pointers with per-shard arenas (see
	// RunSharded), so pool access always stays single-goroutine.
	seqArena    pktArena
	shardArenas []pktArena

	// flowSlab bulk-allocates Flow structs (AddFlow carves from it) and
	// seriesFree bulk-allocates series backing storage (reserveSeries carves
	// from it): at scale, per-flow allocations dominate setup cost and heap
	// fragmentation, so both come in large blocks.
	flowSlab   []Flow
	seriesFree []SeriesPoint
}

// flowSlabBlock is how many Flow structs one slab allocation holds.
const flowSlabBlock = 512

// carveSeries hands out a zero-length slice with exactly need capacity from
// the shared backing block. The three-index slice caps the result so an
// overflowing append falls back to a private reallocation instead of
// clobbering a neighbour's samples.
func (n *Network) carveSeries(need int) []SeriesPoint {
	if len(n.seriesFree) < need {
		size := 16384
		if size < need {
			size = need
		}
		n.seriesFree = make([]SeriesPoint, size)
	}
	out := n.seriesFree[0:0:need]
	n.seriesFree = n.seriesFree[need:]
	return out
}

// New returns an empty network.
func New(cfg Config) *Network {
	if cfg.RecordInterval <= 0 {
		cfg.RecordInterval = 200 * time.Millisecond
	}
	return &Network{
		eng: simcore.NewEngine(),
		rng: simcore.NewRNG(cfg.Seed),
		cfg: cfg,
	}
}

// Engine exposes the underlying event engine (for experiment scripts that
// schedule custom probes, e.g. the Fig. 4/5 signal studies).
func (n *Network) Engine() *simcore.Engine { return n.eng }

// SetTap installs an event observer (nil detaches it). Call it before Run;
// installing a tap mid-simulation observes only subsequent events.
func (n *Network) SetTap(t Tap) { n.tap = t }

// Tap returns the installed observer (nil if none).
func (n *Network) Tap() Tap { return n.tap }

// RecordInterval reports the per-flow series sampling granularity.
func (n *Network) RecordInterval() time.Duration { return n.cfg.RecordInterval }

// SetWindowHook installs a virtual-time window observer: once the clock has
// provably passed a point where due(at) reports true, fire(end) runs with
// every event before end executed — sequentially it is chained onto the
// engine's event hook (fire runs on the simulation goroutine), in a sharded
// run it rides the coordinator's exchange barrier (fire runs on shard 0's
// worker with all other workers parked, so it may merge state written by
// any shard). Both callbacks must only observe — no event scheduling, no
// randomness — so a hooked run stays digest-identical to a bare one. Call
// before Run/RunSharded.
func (n *Network) SetWindowHook(due func(at time.Duration) bool, fire func(end time.Duration)) {
	n.whDue, n.whFire = due, fire
}

// installWindowHook chains the sequential form of the window hook onto the
// engine's event hook (idempotent). Sharded runs must not call this: the
// coordinator provides the barrier-synchronized form instead.
func (n *Network) installWindowHook() {
	if n.whDue == nil || n.whInstalled {
		return
	}
	n.whInstalled = true
	prev := n.eng.EventHook()
	due, fire := n.whDue, n.whFire
	n.eng.SetEventHook(func(at time.Duration, seq uint64) {
		if prev != nil {
			prev(at, seq)
		}
		// Events execute in nondecreasing time order, so when an event at
		// `at` runs, everything strictly before `at` is final.
		if due(at) {
			fire(at)
		}
	})
}

// teeTap fans every Tap callback out to two observers in order. It exists
// so the invariant checker (internal/simcheck) and the streaming observer
// (internal/obs) can observe the same run through the single tap slot.
type teeTap struct{ a, b Tap }

func (t teeTap) PacketSent(f *Flow, bytes int) { t.a.PacketSent(f, bytes); t.b.PacketSent(f, bytes) }
func (t teeTap) PacketLost(f *Flow, bytes int) { t.a.PacketLost(f, bytes); t.b.PacketLost(f, bytes) }
func (t teeTap) QueueEnqueued(l *Link, bytes int) {
	t.a.QueueEnqueued(l, bytes)
	t.b.QueueEnqueued(l, bytes)
}
func (t teeTap) QueueDeparted(l *Link, bytes int) {
	t.a.QueueDeparted(l, bytes)
	t.b.QueueDeparted(l, bytes)
}
func (t teeTap) PacketAcked(f *Flow, bytes int, rtt time.Duration) {
	t.a.PacketAcked(f, bytes, rtt)
	t.b.PacketAcked(f, bytes, rtt)
}
func (t teeTap) QueueDropped(l *Link, bytes int, random bool) {
	t.a.QueueDropped(l, bytes, random)
	t.b.QueueDropped(l, bytes, random)
}
func (t teeTap) IntervalDelivered(f *Flow, s cc.IntervalStats) {
	t.a.IntervalDelivered(f, s)
	t.b.IntervalDelivered(f, s)
}
func (t teeTap) SampleRecorded(f *Flow, p SeriesPoint) {
	t.a.SampleRecorded(f, p)
	t.b.SampleRecorded(f, p)
}
func (t teeTap) FaultInjected(l *Link, f *Flow, kind FaultKind, bytes int) {
	t.a.FaultInjected(l, f, kind, bytes)
	t.b.FaultInjected(l, f, kind, bytes)
}

// Taps composes observers into one Tap, dropping nils: Taps() is nil,
// Taps(a) is a, Taps(a, b) observes a first then b.
func Taps(taps ...Tap) Tap {
	var out Tap
	for _, t := range taps {
		switch {
		case t == nil:
		case out == nil:
			out = t
		default:
			out = teeTap{a: out, b: t}
		}
	}
	return out
}

// Now reports current virtual time.
func (n *Network) Now() time.Duration { return n.eng.Now() }

// AddLink creates a link and registers it with the network.
func (n *Network) AddLink(cfg LinkConfig) *Link {
	l := newLink(n, cfg, n.rng.Split(uint64(len(n.links))+0x11))
	n.links = append(n.links, l)
	return l
}

// AddFlow creates a flow and registers it with the network. It panics on a
// structurally invalid config (no path, no controller): those are
// programming errors, not runtime conditions. Flow storage is carved from
// the network's slab, so bulk scenario construction costs one allocation
// per flowSlabBlock flows rather than one per flow.
func (n *Network) AddFlow(cfg FlowConfig) *Flow {
	if len(cfg.Path) == 0 {
		panic("netsim: flow with empty path")
	}
	if cfg.CC == nil && cfg.Alg == nil {
		panic("netsim: flow without CC factory or Alg")
	}
	if len(n.flowSlab) == 0 {
		n.flowSlab = make([]Flow, flowSlabBlock)
	}
	f := &n.flowSlab[0]
	n.flowSlab = n.flowSlab[1:]
	initFlow(f, n, cfg, n.rng.SplitValue(uint64(len(n.flows))+0x8000))
	n.flows = append(n.flows, f)
	return f
}

// Flows returns the registered flows in creation order.
func (n *Network) Flows() []*Flow { return n.flows }

// Links returns the registered links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Run executes the simulation until the horizon and returns the number of
// events executed. It may be called multiple times with increasing horizons.
func (n *Network) Run(horizon time.Duration) int {
	n.installWindowHook()
	for _, f := range n.flows {
		f.armStart()
		f.reserveSeries(horizon)
	}
	return n.eng.Run(horizon)
}

// Validate performs basic sanity checks and returns an error describing the
// first problem found. Experiments call this before running.
func (n *Network) Validate() error {
	if len(n.links) == 0 {
		return fmt.Errorf("netsim: no links")
	}
	if len(n.flows) == 0 {
		return fmt.Errorf("netsim: no flows")
	}
	for i, l := range n.links {
		if l.cfg.Trace == nil && l.cfg.Rate <= 0 {
			return fmt.Errorf("netsim: link %d has no capacity", i)
		}
		if l.cfg.BufferBytes <= 0 {
			return fmt.Errorf("netsim: link %d has no buffer", i)
		}
		if err := l.cfg.Faults.Validate(); err != nil {
			return fmt.Errorf("netsim: link %d: %w", i, err)
		}
	}
	return nil
}
