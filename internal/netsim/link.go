package netsim

import (
	"time"

	"repro/internal/faults"
	"repro/internal/simcore"
	"repro/internal/traces"
)

// LinkConfig describes one directional link.
type LinkConfig struct {
	// Rate is the fixed capacity in bits/second. Ignored if Trace is set.
	Rate float64
	// Trace, if non-nil, drives a time-varying capacity.
	Trace traces.Trace
	// Delay is the one-way propagation delay of this link.
	Delay time.Duration
	// BufferBytes is the DropTail queue capacity in bytes.
	BufferBytes int
	// LossRate is the i.i.d. probability that an arriving packet is
	// corrupted (dropped before queueing), modeling non-congestive loss.
	LossRate float64
	// JitterStd adds per-packet propagation jitter: each packet's
	// propagation delay is Delay + |N(0, JitterStd)|. Jitter causes RTT
	// noise and packet reordering, the empirical-signal noise §3.4's
	// filtering is designed to absorb.
	JitterStd time.Duration
	// Faults attaches deterministic fault processes (burst loss, reordering,
	// duplication, jitter spikes, blackouts) to the link; nil injects
	// nothing. See internal/faults and Link.FaultStats.
	Faults *faults.Config
}

// LinkStats aggregates what a link has carried.
type LinkStats struct {
	DeliveredBytes   int64 // bytes that finished serialization (see Link.Stats)
	DeliveredPackets int64
	OverflowDrops    int64 // DropTail drops
	RandomDrops      int64 // loss-rate drops
	MaxQueueBytes    int64 // high-water mark of the queue
}

// Link is a store-and-forward directional link with a DropTail byte queue.
// Serialization is not an event: enqueue knows when an admitted packet will
// leave, schedules its onward hop (or ACK) for then, and keeps a departure
// record that a later arrival books once the clock has passed it.
type Link struct {
	net *Network
	cfg LinkConfig
	rng *simcore.RNG

	// eng is the engine this link's events run on: the network's single
	// engine normally, the owning shard's engine in a sharded run. shard is
	// the owning shard's index and xs its cross-shard send handle (nil in
	// sequential runs; only consulted when a destination shard differs).
	eng   *simcore.Engine
	shard int
	xs    *simcore.Shard

	// deps are the queued packets' departures in FIFO order, live from
	// dHead on; qBytes counts their bytes. freeAt is when the last of them
	// leaves: the next packet starts serializing at max(arrival, freeAt).
	deps   []departure
	dHead  int
	qBytes int64
	freeAt time.Duration

	// arena is the owning shard's packet pool. The link draws duplicate
	// copies (fault injection) from it rather than from the flow's shard:
	// in a sharded run the copy is created and destroyed on this link's
	// shard, and the owning flow's pool may belong to another shard.
	arena *pktArena

	// faults, when non-nil, applies the configured fault processes (see
	// faults.go). Built only when the config enables at least one process,
	// so fault-free links consume no extra RNG state and stay bit-identical
	// to their pre-fault-subsystem behavior.
	faults *linkFaults

	stats LinkStats
}

func newLink(n *Network, cfg LinkConfig, rng *simcore.RNG) *Link {
	l := &Link{net: n, cfg: cfg, rng: rng, eng: n.eng, arena: &n.seqArena}
	if cfg.Faults.Enabled() {
		l.faults = newLinkFaults(l)
	}
	return l
}

// departure records one queued packet: when it finishes serializing, when
// it started, and its size.
type departure struct {
	at, start time.Duration
	size      int64
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns a snapshot of the link counters as of the executing event
// (after a run: as of its horizon).
func (l *Link) Stats() LinkStats {
	l.retire(l.eng.Now(), l.eng.SchedAt())
	return l.stats
}

// QueueBytes reports the queue occupancy in bytes as of the link's last
// arrival (after a run: as of its horizon): departures since then are booked
// by the next arrival.
func (l *Link) QueueBytes() int64 { return l.qBytes }

// Shard reports which shard the link runs on (0 in sequential runs).
func (l *Link) Shard() int { return l.shard }

// Now reports the virtual time of the link's own engine. Identical to
// Network.Now in sequential runs; in sharded runs it is the only clock a
// tap callback fired by this link may read without racing other shards.
func (l *Link) Now() time.Duration { return l.eng.Now() }

// rateAt reports the capacity in bits/second at virtual time t.
func (l *Link) rateAt(t time.Duration) float64 {
	if l.cfg.Trace != nil {
		return l.cfg.Trace.RateAt(t)
	}
	return l.cfg.Rate
}

// Utilization reports delivered bits divided by capacity·elapsed, using the
// mean capacity over [0, elapsed] for trace-driven links.
func (l *Link) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	var capacity float64
	if l.cfg.Trace != nil {
		capacity = traces.MeanRate(l.cfg.Trace, elapsed, 100*time.Millisecond)
	} else {
		capacity = l.cfg.Rate
	}
	if capacity <= 0 {
		return 0
	}
	return float64(l.Stats().DeliveredBytes) * 8 / (capacity * elapsed.Seconds())
}

// arrive is called when a packet reaches this link (after the previous
// hop's propagation). It runs the fault pipeline (if configured), then
// random loss and DropTail queueing.
func (l *Link) arrive(p *packet) {
	if l.faults != nil && !l.faults.admit(p) {
		return // dropped by a fault process, or deferred for reordering
	}
	l.enqueue(p)
}

// enqueue applies random loss and DropTail queueing, and books an admitted
// packet's departure. It is the re-entry point for reordered packets (whose
// deferred arrival must not run the fault pipeline twice) and for duplicate
// copies.
func (l *Link) enqueue(p *packet) {
	now := l.eng.Now()
	l.retire(now, l.eng.SchedAt())
	if l.cfg.LossRate > 0 && l.rng.Bernoulli(l.cfg.LossRate) {
		l.stats.RandomDrops++
		if tap := l.net.tap; tap != nil {
			tap.QueueDropped(l, p.size, true)
		}
		l.dropped(p)
		return
	}
	if l.qBytes+int64(p.size) > int64(l.cfg.BufferBytes) {
		l.stats.OverflowDrops++
		if tap := l.net.tap; tap != nil {
			tap.QueueDropped(l, p.size, false)
		}
		l.dropped(p)
		return
	}
	start := max(now, l.freeAt)
	rate := l.rateAt(start)
	if rate < 1 {
		rate = 1 // avoid division blow-ups on pathological traces
	}
	txDur := time.Duration(float64(p.size) * 8 / rate * float64(time.Second))
	if txDur < time.Nanosecond {
		txDur = time.Nanosecond
	}
	l.freeAt = start + txDur
	if len(l.deps) == cap(l.deps) && 2*l.dHead >= len(l.deps) {
		l.deps, l.dHead = l.deps[:copy(l.deps, l.deps[l.dHead:])], 0
	}
	l.deps = append(l.deps, departure{at: l.freeAt, start: start, size: int64(p.size)})
	l.qBytes += int64(p.size)
	if l.qBytes > l.stats.MaxQueueBytes {
		l.stats.MaxQueueBytes = l.qBytes
	}
	if tap := l.net.tap; tap != nil {
		tap.QueueEnqueued(l, p.size)
	}
	l.depart(p, l.freeAt)
}

// retire books, in FIFO order, the departures that precede the executing
// event keyed (now, sched): those a serialization-done event keyed (at,
// start) would have preceded. At at == now && start == sched the executing
// event goes first (DESIGN.md, "Determinism and digest parity", rule 5).
func (l *Link) retire(now, sched time.Duration) {
	for l.dHead < len(l.deps) {
		d := l.deps[l.dHead]
		if d.at > now || d.at == now && d.start >= sched {
			break
		}
		l.dHead++
		l.qBytes -= d.size
		l.stats.DeliveredBytes += d.size
		l.stats.DeliveredPackets++
		if tap := l.net.tap; tap != nil {
			tap.QueueDeparted(l, int(d.size))
		}
	}
	if l.dHead == len(l.deps) {
		l.deps, l.dHead = l.deps[:0], 0
	}
}

// dropped routes a discarded packet to its terminal accounting: real
// packets feed the sender's loss detection; duplicate copies were never
// counted as sent, so they are recycled directly.
func (l *Link) dropped(p *packet) {
	if p.dup {
		l.releaseDup(p)
		return
	}
	l.dropToSender(p)
}

// dropToSender engages the sender's loss detection for a packet this link
// discarded. When the flow lives on this shard the delay comes from its
// live srtt exactly as in a sequential run; when it lives on another shard
// the link may not read that state, so the detection event crosses with the
// delay stamped on the packet at send time (see packet.lossDelay — always
// ≥ the inter-shard lookahead).
func (l *Link) dropToSender(p *packet) {
	f := p.flow
	if f.shard != l.shard {
		now := l.eng.Now()
		l.xs.Send(f.shard, now+p.lossDelay, now, flowLossDetected, p)
		return
	}
	f.onDrop(p)
}

// cloneDup takes a pooled packet shaped like p, marked as a fault-injected
// duplicate (see packet.dup).
func (l *Link) cloneDup(p *packet) *packet {
	d := l.arena.alloc()
	d.flow = p.flow
	d.size = p.size
	d.sentAt = p.sentAt
	d.hop = p.hop
	d.ctrlIdx = p.ctrlIdx
	d.lossDelay = p.lossDelay
	d.dup = true
	return d
}

// releaseDup recycles a duplicate copy once the link is done with it.
func (l *Link) releaseDup(p *packet) {
	l.arena.release(p)
}

// deliver schedules the ACK of a packet that has cleared its last link and
// reaches the receiver at arrive. The ACK fires one return leg later,
// stamped as scheduled at arrive, so equal-time ties order as if the
// receiver had scheduled it on arrival; no receiver-side event runs. A
// sender on another shard gets it across the barrier: the return leg spans
// the whole path, cut included, so it lands at least one lookahead out.
func (l *Link) deliver(p *packet, arrive time.Duration) {
	f := p.flow
	at := arrive + f.returnLeg
	if f.shard != l.shard {
		l.xs.Send(f.shard, at, arrive, flowAck, p)
		return
	}
	l.eng.InjectArg(at, arrive, flowAck, p)
}

// depart sends a packet on from the instant at its serialization ends:
// into propagation toward the next hop, or, past the last link, to its ACK
// (see deliver), stamped as if an event at that instant had scheduled it.
func (l *Link) depart(p *packet, at time.Duration) {
	if p.dup {
		// The receiver side of the link discards duplicate copies; the
		// copy's whole cost — buffer space and serialization time — is
		// already booked.
		l.releaseDup(p)
		return
	}
	prop := l.cfg.Delay
	if l.cfg.JitterStd > 0 {
		j := l.rng.Norm(0, float64(l.cfg.JitterStd))
		if j < 0 {
			j = -j
		}
		prop += time.Duration(j)
	}
	if l.faults != nil {
		prop += l.faults.delaySpike(p)
	}
	if nh := p.hop + 1; nh == len(p.flow.cfg.Path) {
		l.deliver(p, at+prop)
	} else if dst := p.flow.cfg.Path[nh].shard; dst != l.shard {
		// The packet's next arrival belongs to the next hop's shard; this
		// link's propagation delay is exactly the lookahead the partitioner
		// guaranteed for that cut, so the cross-send never violates the
		// coordinator's window.
		l.xs.Send(dst, at+prop, at, flowAdvance, p)
	} else {
		l.eng.InjectArg(at+prop, at, flowAdvance, p)
	}
}
