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
	DeliveredBytes   int64 // bytes that finished serialization
	DeliveredPackets int64
	OverflowDrops    int64 // DropTail drops
	RandomDrops      int64 // loss-rate drops
	MaxQueueBytes    int64 // high-water mark of the queue
}

// Link is a store-and-forward directional link with a DropTail byte queue.
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

	queue  []*packet
	qHead  int
	qBytes int64
	busy   bool

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
	if cfg.BufferBytes > 0 {
		// Size the queue for a buffer full of minimum-size packets, doubled
		// because the lazy head compaction in finishTx lets the live window
		// drift up to halfway through the backing array before sliding back.
		l.queue = make([]*packet, 0, 2*(cfg.BufferBytes/DefaultPacketSize+1))
	}
	if cfg.Faults.Enabled() {
		l.faults = newLinkFaults(l)
	}
	return l
}

// linkFinishTx is the shared serialization-done dispatcher: the packet's
// current hop identifies the link, so no per-link closure is needed and the
// ScheduleArg path stays allocation-free.
func linkFinishTx(a any) {
	p := a.(*packet)
	p.flow.cfg.Path[p.hop].finishTx(p)
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueBytes reports the current queue occupancy in bytes.
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
	return float64(l.stats.DeliveredBytes) * 8 / (capacity * elapsed.Seconds())
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

// enqueue applies random loss and DropTail queueing. It is the re-entry
// point for reordered packets (whose deferred arrival must not run the
// fault pipeline twice) and for duplicate copies.
func (l *Link) enqueue(p *packet) {
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
	l.queue = append(l.queue, p)
	l.qBytes += int64(p.size)
	if l.qBytes > l.stats.MaxQueueBytes {
		l.stats.MaxQueueBytes = l.qBytes
	}
	if tap := l.net.tap; tap != nil {
		tap.QueueEnqueued(l, p.size)
	}
	if !l.busy {
		l.startTx()
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

// startTx begins serializing the packet at the head of the queue.
func (l *Link) startTx() {
	p := l.queue[l.qHead]
	l.busy = true
	rate := l.rateAt(l.eng.Now())
	if rate < 1 {
		rate = 1 // avoid division blow-ups on pathological traces
	}
	txDur := time.Duration(float64(p.size) * 8 / rate * float64(time.Second))
	if txDur < time.Nanosecond {
		txDur = time.Nanosecond
	}
	l.eng.ScheduleArgAfter(txDur, linkFinishTx, p)
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

// finishTx completes serialization: the packet leaves the queue and enters
// propagation toward the next hop, or, past the last link, its ACK is
// scheduled (see deliver).
func (l *Link) finishTx(p *packet) {
	l.queue[l.qHead] = nil
	l.qHead++
	if l.qHead > 64 && l.qHead*2 >= len(l.queue) {
		l.queue = append(l.queue[:0], l.queue[l.qHead:]...)
		l.qHead = 0
	}
	l.qBytes -= int64(p.size)
	l.stats.DeliveredBytes += int64(p.size)
	l.stats.DeliveredPackets++
	if tap := l.net.tap; tap != nil {
		tap.QueueDeparted(l, p.size)
	}

	if p.dup {
		// The receiver side of the link discards duplicate copies; the
		// copy's whole cost — buffer space and serialization time — has been
		// paid by now.
		l.releaseDup(p)
	} else {
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
		now := l.eng.Now()
		if nh := p.hop + 1; nh == len(p.flow.cfg.Path) {
			l.deliver(p, now+prop)
		} else if dst := p.flow.cfg.Path[nh].shard; dst != l.shard {
			// The packet's next arrival belongs to the next hop's shard;
			// this link's propagation delay is exactly the lookahead the
			// partitioner guaranteed for that cut, so the cross-send never
			// violates the coordinator's window.
			l.xs.Send(dst, now+prop, now, flowAdvance, p)
		} else {
			l.eng.ScheduleArgAfter(prop, flowAdvance, p)
		}
	}

	if l.qHead < len(l.queue) {
		l.startTx()
	} else {
		l.busy = false
	}
}
