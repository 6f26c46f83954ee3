package netsim

import (
	"time"

	"repro/internal/cc"
	"repro/internal/simcore"
)

// DefaultPacketSize is the MSS used when FlowConfig.PacketSize is zero.
const DefaultPacketSize = 1500

// FlowConfig describes one sender/receiver pair.
type FlowConfig struct {
	Name string
	// Path is the ordered list of links the flow's packets traverse.
	Path []*Link
	// Alg is the flow's congestion controller, constructed by the caller
	// and owned by the flow from AddFlow on.
	Alg cc.Algorithm
	// Start is when the flow begins sending.
	Start time.Duration
	// Duration bounds the sending period; zero means "until the horizon".
	Duration time.Duration
	// ExtraOneWay adds per-flow propagation delay in each direction, so
	// flows sharing a bottleneck can have heterogeneous base RTTs.
	ExtraOneWay time.Duration
	// PacketSize is the MSS in bytes (default DefaultPacketSize). High-speed
	// experiments scale it up to bound event counts.
	PacketSize int
}

// packet is one in-flight segment. Packets are pooled per shard (see
// pktArena): a packet is recycled once it terminates (ACKed or
// loss-detected), so steady-state sending allocates nothing per packet.
type packet struct {
	flow    *Flow
	size    int
	sentAt  time.Duration
	hop     int
	ctrlIdx int64 // send-interval index for interval-driven schemes
	// lossDelay is the sender's loss-detection delay stamped at send time
	// (srtt, or base RTT before any sample; ≥ 1ms). Sharded runs use it when
	// a packet drops on a link owned by another shard: the link cannot read
	// the flow's live srtt across shards, and the stamp is both race-free and
	// ≥ the inter-shard lookahead (every RTT sample ≥ baseRTT ≥ any cut
	// delay on the path, so srtt never falls below it).
	lossDelay time.Duration
	// dup marks a fault-injected duplicate copy: it occupies queue space and
	// serialization time on one link but is invisible to the sender's
	// accounting (never counted sent/acked/lost, discarded after departure).
	dup bool
}

// pktArena pools packets for every flow and link that runs on one shard.
// Pooling per shard rather than per flow keeps the pooled population
// proportional to the shard's peak in-flight packets instead of reserving a
// private slab per flow — the difference between megabytes and gigabytes at
// a million flows. Exactly one shard goroutine ever touches an arena: flows
// allocate at send and release at ACK/loss on their own shard, and
// fault-injected duplicate copies are cloned and released on the owning
// link's shard.
type pktArena struct {
	free []*packet
	slab []packet // backing block the pool grows from, 256 at a time
}

func (a *pktArena) alloc() *packet {
	var p *packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		if len(a.slab) == 0 {
			a.slab = make([]packet, 256)
		}
		p = &a.slab[0]
		a.slab = a.slab[1:]
	}
	return p
}

func (a *pktArena) release(p *packet) {
	p.flow = nil
	a.free = append(a.free, p)
}

// SeriesPoint is one sample of a flow's recorded time series.
type SeriesPoint struct {
	T             time.Duration // end of the sample window
	ThroughputBps float64       // delivery rate over the window
	SendRateBps   float64       // transmission rate over the window
	AvgRTT        time.Duration // mean RTT of ACKs in the window (0 if none)
	LossRate      float64       // lost/(lost+acked) in the window
	Cwnd          float64       // controller cwnd at sample time
	PacingBps     float64       // controller pacing rate at sample time
}

// FlowStats summarizes a flow over its whole lifetime.
type FlowStats struct {
	Name             string
	Start            time.Duration
	ActiveFor        time.Duration
	SentPackets      int64
	SentBytes        int64
	AckedPackets     int64
	AckedBytes       int64
	LostPackets      int64
	MinRTT           time.Duration
	AvgRTT           time.Duration
	AvgThroughputBps float64
	LossRate         float64
}

// intervalAgg accumulates feedback between control (or recording) ticks.
type intervalAgg struct {
	ackedBytes   int64
	ackedPackets int64
	sentBytes    int64
	sentPackets  int64
	lostPackets  int64
	rttSum       time.Duration
}

func (a *intervalAgg) reset() { *a = intervalAgg{} }

func (a *intervalAgg) addAck(bytes int, rtt time.Duration) {
	a.ackedBytes += int64(bytes)
	a.ackedPackets++
	a.rttSum += rtt
}

// Shared event dispatchers. Flow and packet events schedule these
// package-level functions with the flow (or packet) as the ScheduleArg
// payload, instead of binding a closure per flow: the flyweight makes a
// Flow carry no per-instance callback state — at a million flows, the six
// closures the struct used to hold were six heap objects and ~100 B each,
// all pointing at identical code. A static func value assigned into a
// func(any) field or interface allocates nothing, and a pointer payload in
// an any allocates nothing either, so the per-event path stays
// allocation-free.
func flowAdvance(a any)      { p := a.(*packet); p.flow.advance(p) }
func flowAck(a any)          { p := a.(*packet); p.flow.onAck(p) }
func flowLossDetected(a any) { p := a.(*packet); p.flow.onLossDetected(p) }
func flowTrySend(a any)      { a.(*Flow).trySend() }
func flowIntervalTick(a any) { a.(*Flow).intervalTick() }
func flowRecordTick(a any)   { a.(*Flow).recordTick() }
func flowStart(a any)        { a.(*Flow).start() }
func flowStop(a any)         { a.(*Flow).stop() }

// Flow is a bulk sender driving one cc.Algorithm. Flows are bulk-allocated
// from the network's slab (see Network.AddFlow) and their fields are
// grouped hot-first: everything the per-packet path (trySend, advance,
// onAck) touches sits at the front of the struct so a million-flow working
// set wastes as little cache as possible on cold configuration state.
type Flow struct {
	// Hot: per-packet path state.
	alg        cc.Algorithm
	eng        *simcore.Engine // this flow's engine (its shard's, when sharded)
	arena      *pktArena       // its shard's packet pool
	inflight   int
	pktSize    int
	nextSendAt time.Duration
	sendTimer  simcore.Timer
	srtt       time.Duration
	minRTT     time.Duration
	rng        simcore.RNG // pacing jitter stream; by value — 8 bytes, no pointer chase
	rec        intervalAgg // feeds the recorded series
	active     bool
	started    bool
	shard      int

	// Warm: per-ACK/loss and tick state.
	tracker   *intervalTracker // send-interval attribution for interval schemes
	returnLeg time.Duration    // ack path delay: Σ link prop + ExtraOneWay
	baseRTT   time.Duration    // 2·(Σ link prop + ExtraOneWay)
	stopAt    time.Duration

	// Cold: configuration, lifetime totals, recorded output.
	net    *Network
	cfg    FlowConfig
	total  intervalAgg
	series []SeriesPoint
}

// initFlow constructs a flow in place (the storage comes from the network's
// flow slab).
func initFlow(f *Flow, n *Network, cfg FlowConfig, rng simcore.RNG) {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = DefaultPacketSize
	}
	var prop time.Duration
	for _, l := range cfg.Path {
		prop += l.cfg.Delay
	}
	*f = Flow{
		net:       n,
		cfg:       cfg,
		rng:       rng,
		eng:       n.eng,
		arena:     &n.seqArena,
		alg:       cfg.Alg,
		pktSize:   cfg.PacketSize,
		returnLeg: prop + cfg.ExtraOneWay,
		baseRTT:   2 * (prop + cfg.ExtraOneWay),
	}
}

// Name returns the flow's configured name.
func (f *Flow) Name() string { return f.cfg.Name }

// Config returns the flow's configuration.
func (f *Flow) Config() FlowConfig { return f.cfg }

// CC exposes the flow's controller (experiments use this to steer Manual
// controllers or inspect scheme internals).
func (f *Flow) CC() cc.Algorithm { return f.alg }

// BaseRTT reports the flow's propagation-only round-trip time.
func (f *Flow) BaseRTT() time.Duration { return f.baseRTT }

// Now reports the virtual time of the flow's own engine. Identical to
// Network.Now in sequential runs; in sharded runs it is the only clock a
// tap callback fired by this flow may read without racing other shards.
func (f *Flow) Now() time.Duration { return f.eng.Now() }

// Series returns the recorded time series.
func (f *Flow) Series() []SeriesPoint { return f.series }

// Intervals reports how many control intervals the flow has delivered to
// its controller, including any that completed after the flow stopped (0
// for a scheme that is not interval-driven).
func (f *Flow) Intervals() int64 {
	if f.tracker == nil {
		return 0
	}
	return f.tracker.next
}

// Shard reports which shard the flow runs on (0 in sequential runs). Tap
// callbacks fired by this flow use it to index per-shard observer state
// without cross-shard races.
func (f *Flow) Shard() int { return f.shard }

// reserveSeries sizes the series backing array to record through the given
// horizon, so recordTick appends never reallocate mid-run. need counts the
// flow's samples from its start, the ones already recorded included, so it
// is held against the whole capacity. A fresh flow is carved out of the
// network's shared backing block (one allocation per ~16k samples instead
// of one per flow); a flow whose series is too short grows privately to at
// least twice its capacity, so a run stepped in short Run calls (the
// training environment's 30 ms steps) copies its series O(log samples)
// times rather than at every record tick.
func (f *Flow) reserveSeries(horizon time.Duration) {
	end := horizon
	if f.cfg.Duration > 0 && f.cfg.Start+f.cfg.Duration < end {
		end = f.cfg.Start + f.cfg.Duration
	}
	if end <= f.cfg.Start {
		return
	}
	need := int((end-f.cfg.Start)/recordInterval) + 2
	if cap(f.series) >= need {
		return
	}
	if cap(f.series) == 0 {
		f.series = f.net.carveSeries(need)
		return
	}
	s := make([]SeriesPoint, len(f.series), max(need, 2*cap(f.series)))
	copy(s, f.series)
	f.series = s
}

// armStart schedules the flow's start (idempotent).
func (f *Flow) armStart() {
	if f.started {
		return
	}
	f.started = true
	f.eng.ScheduleArg(f.cfg.Start, flowStart, f)
}

func (f *Flow) start() {
	now := f.eng.Now()
	f.active = true
	if f.cfg.Duration > 0 {
		f.stopAt = f.cfg.Start + f.cfg.Duration
		f.eng.ScheduleArg(f.stopAt, flowStop, f)
	}
	f.alg.Init(now)
	if ia, ok := f.alg.(cc.IntervalAlgorithm); ok {
		f.tracker = newIntervalTracker(ia)
		f.eng.ScheduleArgAfter(f.tracker.interval, flowIntervalTick, f)
	}
	f.eng.ScheduleArgAfter(recordInterval, flowRecordTick, f)
	f.trySend()
}

func (f *Flow) stop() {
	f.active = false
	f.sendTimer.Cancel()
	f.sendTimer = simcore.Timer{}
}

// intervalTick closes the current send interval and delivers any completed
// ones (the delivery of interval t naturally lags its close by ~1 RTT).
func (f *Flow) intervalTick() {
	if !f.active {
		return
	}
	now := f.eng.Now()
	f.tracker.closeCurrent(f, now)
	f.tracker.tryDeliver(f, now)
	f.eng.ScheduleArgAfter(f.tracker.interval, flowIntervalTick, f)
}

func (f *Flow) recordTick() {
	if !f.active {
		return
	}
	now := f.eng.Now()
	iv := recordInterval
	p := SeriesPoint{
		T:             now,
		ThroughputBps: float64(f.rec.ackedBytes) * 8 / iv.Seconds(),
		SendRateBps:   float64(f.rec.sentBytes) * 8 / iv.Seconds(),
		LossRate:      lossRate(f.rec.lostPackets, f.rec.ackedPackets),
		Cwnd:          f.alg.CWND(),
		PacingBps:     f.alg.PacingRate(),
	}
	if f.rec.ackedPackets > 0 {
		p.AvgRTT = f.rec.rttSum / time.Duration(f.rec.ackedPackets)
	}
	f.series = append(f.series, p)
	if tap := f.net.tap; tap != nil {
		tap.SampleRecorded(f, p)
	}
	f.rec.reset()
	f.eng.ScheduleArgAfter(iv, flowRecordTick, f)
}

func lossRate(lost, acked int64) float64 {
	if lost+acked == 0 {
		return 0
	}
	return float64(lost) / float64(lost+acked)
}

// trySend transmits packets while the window and pacing schedule allow.
func (f *Flow) trySend() {
	if !f.active {
		return
	}
	now := f.eng.Now()
	cwnd := f.alg.CWND()
	if cwnd < 1 {
		cwnd = 1
	}
	for float64(f.inflight) < cwnd {
		rate := f.alg.PacingRate()
		if rate > 0 && f.nextSendAt > now {
			f.sendTimer = f.eng.Rearm(f.sendTimer, f.nextSendAt, flowTrySend, f)
			return
		}
		f.sendPacket(now)
		if rate > 0 {
			gap := time.Duration(float64(f.pktSize) * 8 / rate * float64(time.Second))
			// Mean-preserving exponential jitter on the pacing gap (Poisson
			// arrivals). Perfectly periodic senders phase-lock against
			// DropTail departures — the waiting-time paradox skews admission
			// toward the faster stream — whereas memoryless arrivals make a
			// full buffer admit packets in proportion to each flow's sending
			// rate, the regime Eq. 2 of the paper (and Jury's occupancy
			// estimator) assumes. Real aggregated traffic is bursty enough
			// to be far closer to this than to CBR.
			gap = time.Duration(float64(gap) * f.rng.ExpFloat64())
			if gap > time.Second {
				gap = time.Second // floor the pacing rate at ~MSS/sec
			}
			base := f.nextSendAt
			if base < now {
				base = now
			}
			f.nextSendAt = base + gap
		}
	}
}

// allocPacket takes a packet from the shard's arena and stamps it for this
// flow.
func (f *Flow) allocPacket(now time.Duration) *packet {
	p := f.arena.alloc()
	p.flow = f
	p.size = f.pktSize
	p.sentAt = now
	p.hop = -1
	p.ctrlIdx = 0
	p.dup = false
	return p
}

// releasePacket recycles a terminated packet (ACKed or loss-detected).
func (f *Flow) releasePacket(p *packet) {
	f.arena.release(p)
}

// lossDetectDelay is the time between a drop and the sender noticing it
// (emulating duplicate-ACK detection): the smoothed RTT, the base RTT before
// any sample, floored at 1ms.
func (f *Flow) lossDetectDelay() time.Duration {
	delay := f.srtt
	if delay == 0 {
		delay = f.baseRTT
	}
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	return delay
}

func (f *Flow) sendPacket(now time.Duration) {
	p := f.allocPacket(now)
	p.lossDelay = f.lossDetectDelay()
	f.inflight++
	if f.tracker != nil {
		p.ctrlIdx = f.tracker.onSend(p.size)
	}
	f.rec.sentBytes += int64(p.size)
	f.rec.sentPackets++
	f.total.sentBytes += int64(p.size)
	f.total.sentPackets++
	if tap := f.net.tap; tap != nil {
		tap.PacketSent(f, p.size)
	}
	if f.cfg.ExtraOneWay > 0 {
		f.eng.ScheduleArgAfter(f.cfg.ExtraOneWay, flowAdvance, p)
	} else {
		f.advance(p)
	}
}

// advance moves a packet onto its next hop. It always runs on the shard
// owning that link (cross-shard hops are routed by Link.depart), so the
// arrive call below never crosses shards. Packets past their last link never
// come back here: the last link schedules the ACK itself (Link.deliver).
func (f *Flow) advance(p *packet) {
	p.hop++
	f.cfg.Path[p.hop].arrive(p)
}

func (f *Flow) onAck(p *packet) {
	now := f.eng.Now()
	sentAt := p.sentAt
	size := p.size
	rtt := now - sentAt
	f.inflight--
	if tap := f.net.tap; tap != nil {
		tap.PacketAcked(f, size, rtt)
	}
	if f.tracker != nil {
		f.tracker.onAck(p.ctrlIdx, now, size, rtt)
	}
	// The packet terminates here; recycle it before trySend can reuse it.
	f.releasePacket(p)
	if !f.active {
		return
	}
	if f.minRTT == 0 || rtt < f.minRTT {
		f.minRTT = rtt
	}
	if f.srtt == 0 {
		f.srtt = rtt
	} else {
		f.srtt += (rtt - f.srtt) / 8
	}
	f.rec.addAck(size, rtt)
	f.total.addAck(size, rtt)
	f.alg.OnAck(cc.Ack{Now: now, SentAt: sentAt, RTT: rtt, Bytes: size})
	f.trySend()
	if f.tracker != nil {
		f.tracker.tryDeliver(f, now)
	}
}

// onDrop is called by a link on the flow's own shard when it discards one
// of this flow's packets. The sender learns about the loss one (estimated)
// RTT later, emulating duplicate-ACK detection. Cross-shard drops bypass
// this and use the packet's send-time lossDelay stamp (see Link.dropToSender).
func (f *Flow) onDrop(p *packet) {
	f.eng.ScheduleArgAfter(f.lossDetectDelay(), flowLossDetected, p)
}

func (f *Flow) onLossDetected(p *packet) {
	sentAt := p.sentAt
	size := p.size
	f.inflight--
	if tap := f.net.tap; tap != nil {
		tap.PacketLost(f, size)
	}
	if f.tracker != nil {
		f.tracker.onLoss(p.ctrlIdx)
	}
	// The packet terminates here; recycle it before trySend can reuse it.
	f.releasePacket(p)
	if !f.active {
		return
	}
	now := f.eng.Now()
	f.rec.lostPackets++
	f.total.lostPackets++
	f.alg.OnLoss(cc.Loss{Now: now, SentAt: sentAt, Bytes: size})
	f.trySend()
	if f.tracker != nil {
		f.tracker.tryDeliver(f, now)
	}
}

// Stats summarizes the flow so far.
func (f *Flow) Stats() FlowStats {
	now := f.eng.Now()
	end := now
	if f.stopAt > 0 && f.stopAt < end {
		end = f.stopAt
	}
	active := end - f.cfg.Start
	if active < 0 {
		active = 0
	}
	s := FlowStats{
		Name:         f.cfg.Name,
		Start:        f.cfg.Start,
		ActiveFor:    active,
		SentPackets:  f.total.sentPackets,
		SentBytes:    f.total.sentBytes,
		AckedPackets: f.total.ackedPackets,
		AckedBytes:   f.total.ackedBytes,
		LostPackets:  f.total.lostPackets,
		MinRTT:       f.minRTT,
		LossRate:     lossRate(f.total.lostPackets, f.total.ackedPackets),
	}
	if f.total.ackedPackets > 0 {
		s.AvgRTT = f.total.rttSum / time.Duration(f.total.ackedPackets)
	}
	if active > 0 {
		s.AvgThroughputBps = float64(f.total.ackedBytes) * 8 / active.Seconds()
	}
	return s
}
