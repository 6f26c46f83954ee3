// Package obs is the streaming fairness observatory: constant-memory live
// metrics for runs too large to keep per-flow series for. It layers on the
// netsim tap fan-out and the coordinator window hook:
//
//   - per-shard mergeable accumulators — an exact-instant group table
//     (count/sum/sum-of-squares per recording instant, for windowed Jain
//     over throughput) plus log-bucketed quantile sketches for per-flow rate
//     and RTT — updated with zero allocations on the hot path;
//   - a merge at each due coordinator barrier (or, sequentially, at the
//     first event past each window boundary), emitting a FairnessSnapshot
//     series in virtual time: windowed and cumulative Jain, p50/p95/p99
//     rate and RTT, degraded-decision and fault counts;
//   - a per-shard flight recorder ring dumped as JSONL on trigger (see
//     recorder.go) — the black box of a million-flow run;
//   - a live /fairness surface (state.go) fed as snapshots are emitted.
//
// Correctness is pinned the telemetry way: the observer only reads — never
// schedules events or draws randomness — so an observed run is
// digest-identical to a bare one, and the cumulative streaming Jain equals
// the post-hoc metrics.TimewiseJain exactly (same instant grouping, same
// (Σx)²/(n·Σx²) per instant, same ≥2-samples rule, same empty→1
// convention) as long as no shard's instant table overflows; overflow
// degrades gracefully by quantizing instants to the recording interval.
// Memory is O(shards × window state), independent of flow count.
package obs

import (
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
)

// Options configures a Runtime.
type Options struct {
	// Window is the snapshot cadence in virtual time (default 500ms). The
	// effective cadence is max(Window, coordinator sync window) in sharded
	// runs: snapshots only materialize at barriers.
	Window time.Duration
	// FlightSize is the per-shard flight-recorder ring size in entries
	// (default 2048).
	FlightSize int
	// FlightDir is where flight dumps are written; "" disables dumping (the
	// rings still record, and Dump reports "").
	FlightDir string
	// MaxDumps caps JSONL dumps per run (default 8).
	MaxDumps int
	// FaultBurst is the injected-fault count within one snapshot window that
	// triggers a flight dump (default 64; <0 disables the trigger).
	FaultBurst int64
}

// Runtime is the process-wide observatory: options plus the live State fed
// by every attached run. A nil Runtime is the disabled observatory — Attach
// returns a nil Observer and every method no-ops.
type Runtime struct {
	opts  Options
	state *State
}

// New builds a Runtime.
func New(o Options) *Runtime {
	if o.Window <= 0 {
		o.Window = 500 * time.Millisecond
	}
	if o.FaultBurst == 0 {
		o.FaultBurst = 64
	}
	return &Runtime{opts: o, state: NewState()}
}

// State returns the live snapshot surface (nil for a nil Runtime).
func (rt *Runtime) State() *State {
	if rt == nil {
		return nil
	}
	return rt.state
}

// FairnessSnapshot is one emitted point of the streaming fairness series.
// Jain indices follow metrics.TimewiseJain's conventions; percentiles come
// from the cumulative sketches (the distribution of all samples up to T).
type FairnessSnapshot struct {
	T             time.Duration `json:"t_ns"`
	WindowJain    float64       `json:"window_jain"` // mean instant Jain within this window (1 if no multi-flow instant)
	CumJain       float64       `json:"cum_jain"`    // streaming TimewiseJain over the whole run so far
	Instants      int64         `json:"instants"`    // multi-flow instants in this window
	CumInstants   int64         `json:"cum_instants"`
	Samples       int64         `json:"samples"` // cumulative per-flow samples observed
	RateP50       float64       `json:"rate_p50_bps"`
	RateP95       float64       `json:"rate_p95_bps"`
	RateP99       float64       `json:"rate_p99_bps"`
	RTTP50        float64       `json:"rtt_p50_s"`
	RTTP95        float64       `json:"rtt_p95_s"`
	RTTP99        float64       `json:"rtt_p99_s"`
	Drops         int64         `json:"drops"`  // cumulative queue drops
	Faults        int64         `json:"faults"` // cumulative injected faults
	Degraded      int64         `json:"degraded"`
	DegradedDelta int64         `json:"degraded_delta"` // vs previous snapshot
	FaultDelta    int64         `json:"fault_delta"`
}

// StreamSummary is the compact whole-run digest Finish returns — what a
// runstore record or RobustnessTable keeps when full per-flow series are
// unaffordable.
type StreamSummary struct {
	FinalJain     float64 // == final CumJain, the streaming TimewiseJain
	MinWindowJain float64 // worst windowed Jain seen (transient unfairness); 1 if no window measured
	Snapshots     int64
	Samples       int64
	RateP50       float64
	RateP95       float64
	RateP99       float64
	RTTP50        float64
	RTTP95        float64
	RTTP99        float64
	Drops         int64
	Faults        int64
	Degraded      int64
}

// juryCounters is the structural slice of core.Jury the observer polls at
// snapshot boundaries (no core import: obs sits below the controller
// packages). The counters are atomics, safe to read from shard 0's worker
// while other shards are parked at the barrier.
type juryCounters interface {
	DegradedDecisions() int64
	NonFiniteActions() int64
}

// The instant group table: a fixed-size open-addressing map from exact
// recording instant (ns) to (n, Σx, Σx²). Canonical scenarios have a
// handful of distinct instants per window, so the table stays exact there;
// a million staggered flows overflow it, at which point instants quantize
// to the recording interval (bounded, deterministic, documented loss of
// instant resolution — never of samples).
const (
	groupSlots     = 512 // power of two
	groupLoadLimit = 448
)

type instGroup struct {
	t     int64 // instant in ns; n == 0 marks an empty slot
	n     int64
	sum   float64
	sumsq float64
}

type groupTable struct {
	slots    [groupSlots]instGroup
	used     int
	quantum  int64     // overflow quantization step (recording interval, ns)
	overflow instGroup // catch-all beyond even quantized capacity (t = -1)
}

func groupHash(t int64) int {
	return int((uint64(t) * 0x9e3779b97f4a7c15) >> (64 - 9)) // 2^9 slots
}

// insert folds v into the group for t, claiming an empty slot only when
// mayClaim. Returns false when t is absent and no slot may be claimed.
func (g *groupTable) insert(t int64, v float64, mayClaim bool) bool {
	h := groupHash(t)
	for i := 0; i < groupSlots; i++ {
		s := &g.slots[(h+i)&(groupSlots-1)]
		if s.n == 0 {
			if !mayClaim {
				return false
			}
			s.t, s.n, s.sum, s.sumsq = t, 1, v, v*v
			g.used++
			return true
		}
		if s.t == t {
			s.n++
			s.sum += v
			s.sumsq += v * v
			return true
		}
	}
	return false
}

func (g *groupTable) add(t int64, v float64) {
	if g.insert(t, v, g.used < groupLoadLimit) {
		return
	}
	if g.quantum > 0 {
		qt := (t + g.quantum/2) / g.quantum * g.quantum
		if g.insert(qt, v, g.used < groupSlots) {
			return
		}
	}
	g.overflow.t = -1
	g.overflow.n++
	g.overflow.sum += v
	g.overflow.sumsq += v * v
}

func (g *groupTable) reset() {
	g.slots = [groupSlots]instGroup{}
	g.used = 0
	g.overflow = instGroup{}
}

// shardAcc is one shard's accumulator set. Each is written only by the
// goroutine executing that shard's events; shard 0 reads them all at a
// barrier (workers parked) or, sequentially, inline.
type shardAcc struct {
	samples int64
	drops   int64
	faults  int64
	groups  groupTable
	rate    sketch
	rtt     sketch
}

// Observer instruments one run. Create it with Runtime.Attach before the
// run, call Finish after. A nil Observer no-ops everywhere.
type Observer struct {
	netsim.NopTap // per-packet send/ack/loss and queue occupancy are not observed

	rt  *Runtime
	net *netsim.Network

	window time.Duration
	shards []shardAcc
	rec    *Recorder
	juries []juryCounters

	// Flush-time state: only touched by the goroutine firing the window hook
	// (shard 0's worker, or the single sequential goroutine).
	nextBoundary  time.Duration
	cumJainSum    float64
	cumInstants   int64
	lastDegraded  int64
	lastFaults    int64
	minWindowJain float64
	snaps         []FairnessSnapshot
	scratch       []instGroup
	mergedRate    sketch
	mergedRTT     sketch
	finished      bool
}

// Attach instruments n, chaining any previously installed tap (simcheck,
// telemetry) and claiming the network's window hook. shards must be at
// least the shard count the run will use (exp passes the requested
// max-shards; netsim.Flow.Shard always stays below it).
func (rt *Runtime) Attach(n *netsim.Network, shards int) *Observer {
	if rt == nil {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	o := &Observer{
		rt:            rt,
		net:           n,
		window:        rt.opts.Window,
		shards:        make([]shardAcc, shards),
		rec:           newRecorder(shards, rt.opts.FlightSize, rt.opts.FlightDir, rt.opts.MaxDumps),
		nextBoundary:  rt.opts.Window,
		minWindowJain: 1,
	}
	quantum := int64(n.RecordInterval())
	for i := range o.shards {
		o.shards[i].groups.quantum = quantum
	}
	for _, f := range n.Flows() {
		if j, ok := f.CC().(juryCounters); ok {
			o.juries = append(o.juries, j)
		}
	}
	n.SetTap(netsim.Taps(n.Tap(), o))
	n.SetWindowHook(o.due, o.fire)
	return o
}

// due reports whether a flush is owed once execution is known to have
// passed bound: strictly past nextBoundary means every sample recorded at
// T ≤ nextBoundary has executed, on every shard.
func (o *Observer) due(bound time.Duration) bool {
	return bound > o.nextBoundary
}

// fire merges and flushes. It runs with exclusive access to every shard's
// accumulators (shard 0's worker between the coordinator's exchange
// barriers, or the sole goroutine of a sequential run). Everything in the
// group tables is complete — all pending events are at ≥ bound > their
// instants — so flushing the whole table keeps the cumulative Jain exact.
func (o *Observer) fire(bound time.Duration) {
	o.flush(bound)
	for o.nextBoundary <= bound {
		o.nextBoundary += o.window
	}
}

// flush merges every shard's window state into one FairnessSnapshot
// labeled T = bound, publishes it, and arms the degraded/fault-burst dump
// triggers.
func (o *Observer) flush(bound time.Duration) {
	// Gather instant groups across shards.
	o.scratch = o.scratch[:0]
	var samples, drops, faults int64
	for i := range o.shards {
		s := &o.shards[i]
		samples += s.samples
		drops += s.drops
		faults += s.faults
		for j := range s.groups.slots {
			if s.groups.slots[j].n > 0 {
				o.scratch = append(o.scratch, s.groups.slots[j])
			}
		}
		if s.groups.overflow.n > 0 {
			o.scratch = append(o.scratch, s.groups.overflow)
		}
		s.groups.reset()
	}
	// Merge equal instants across shards (sort by t, fold runs).
	sortGroups(o.scratch)
	var jainSum float64
	var instants int64
	for i := 0; i < len(o.scratch); {
		g := o.scratch[i]
		j := i + 1
		for j < len(o.scratch) && o.scratch[j].t == g.t {
			g.n += o.scratch[j].n
			g.sum += o.scratch[j].sum
			g.sumsq += o.scratch[j].sumsq
			j++
		}
		i = j
		if g.n < 2 {
			continue // a lone flow is trivially fair; matches TimewiseJain
		}
		instants++
		if g.sumsq > 0 {
			jainSum += g.sum * g.sum / (float64(g.n) * g.sumsq)
		}
		// all-zero instant contributes 0, matching JainIndex's max==0 rule
	}
	o.cumJainSum += jainSum
	o.cumInstants += instants
	windowJain := 1.0
	if instants > 0 {
		windowJain = jainSum / float64(instants)
	}
	cumJain := 1.0
	if o.cumInstants > 0 {
		cumJain = o.cumJainSum / float64(o.cumInstants)
	}
	if instants > 0 && windowJain < o.minWindowJain {
		o.minWindowJain = windowJain
	}
	// Cumulative sketches: merge fresh each flush (cheap: shards × ~1000
	// buckets), so per-shard observes stay uncoordinated.
	o.mergedRate.reset()
	o.mergedRTT.reset()
	for i := range o.shards {
		o.mergedRate.merge(&o.shards[i].rate)
		o.mergedRTT.merge(&o.shards[i].rtt)
	}
	degraded := o.sumDegraded()
	snap := FairnessSnapshot{
		T:             bound,
		WindowJain:    windowJain,
		CumJain:       cumJain,
		Instants:      instants,
		CumInstants:   o.cumInstants,
		Samples:       samples,
		RateP50:       o.mergedRate.quantile(0.50),
		RateP95:       o.mergedRate.quantile(0.95),
		RateP99:       o.mergedRate.quantile(0.99),
		RTTP50:        o.mergedRTT.quantile(0.50),
		RTTP95:        o.mergedRTT.quantile(0.95),
		RTTP99:        o.mergedRTT.quantile(0.99),
		Drops:         drops,
		Faults:        faults,
		Degraded:      degraded,
		DegradedDelta: degraded - o.lastDegraded,
		FaultDelta:    faults - o.lastFaults,
	}
	o.snaps = append(o.snaps, snap)
	o.rt.state.publish(snap)
	o.rec.record(0, FlightEntry{
		VT: int64(bound), Kind: flightSnapshot,
		A: windowJain, B: cumJain, C: float64(samples),
	})
	if snap.DegradedDelta > 0 {
		o.rec.Dump("degraded")
	}
	if burst := o.rt.opts.FaultBurst; burst > 0 && snap.FaultDelta >= burst {
		o.rec.Dump("fault-burst")
	}
	o.lastDegraded = degraded
	o.lastFaults = faults
}

// sortGroups is an insertion sort: the scratch slice is tiny in the exact
// regime (instants per window × shards) and nearly sorted per shard, and
// avoiding sort.Slice keeps flush allocation-free.
func sortGroups(gs []instGroup) {
	for i := 1; i < len(gs); i++ {
		g := gs[i]
		j := i - 1
		for j >= 0 && gs[j].t > g.t {
			gs[j+1] = gs[j]
			j--
		}
		gs[j+1] = g
	}
}

func (o *Observer) sumDegraded() int64 {
	var s int64
	for _, j := range o.juries {
		s += j.DegradedDecisions()
	}
	return s
}

// Finish flushes the tail window (everything recorded since the last
// barrier flush, labeled at the horizon) and returns the whole-run summary.
// Call it once, after the run completes. Nil-safe: returns nil.
func (o *Observer) Finish(horizon time.Duration) *StreamSummary {
	if o == nil {
		return nil
	}
	if !o.finished {
		o.finished = true
		o.flush(horizon)
	}
	last := o.snaps[len(o.snaps)-1]
	return &StreamSummary{
		FinalJain:     last.CumJain,
		MinWindowJain: o.minWindowJain,
		Snapshots:     int64(len(o.snaps)),
		Samples:       last.Samples,
		RateP50:       last.RateP50,
		RateP95:       last.RateP95,
		RateP99:       last.RateP99,
		RTTP50:        last.RTTP50,
		RTTP95:        last.RTTP95,
		RTTP99:        last.RTTP99,
		Drops:         last.Drops,
		Faults:        last.Faults,
		Degraded:      last.Degraded,
	}
}

// Snapshots returns the emitted series (owned by the observer).
func (o *Observer) Snapshots() []FairnessSnapshot {
	if o == nil {
		return nil
	}
	return o.snaps
}

// Recorder returns the run's flight recorder (nil when disabled).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// DumpFlight triggers a flight-recorder dump (e.g. from a panic handler).
func (o *Observer) DumpFlight(reason string) (string, error) {
	if o == nil {
		return "", nil
	}
	return o.rec.Dump(reason)
}

// NoteViolation records a simcheck invariant breach into the flight ring
// and dumps. exp wires this to simcheck.Checker.SetViolationHook so obs
// need not import simcheck.
func (o *Observer) NoteViolation(at time.Duration, rule string) {
	if o == nil {
		return
	}
	o.rec.record(0, FlightEntry{VT: int64(at), Kind: flightViolation, Rule: rule})
	o.rec.Dump("violation")
}

// FootprintBytes reports the observer's accumulator memory: O(shards), not
// O(flows) — the property the million-flow acceptance test pins.
func (o *Observer) FootprintBytes() int64 {
	if o == nil {
		return 0
	}
	perShard := int64(groupSlots*32 + 2*(sketchBuckets+2)*8 + 64)
	flight := int64(0)
	if o.rec != nil && len(o.rec.rings) > 0 {
		flight = int64(len(o.rec.rings)) * int64(len(o.rec.rings[0].e)) * 96
	}
	return int64(len(o.shards))*perShard + flight
}

// --- netsim.Tap ---

// SampleRecorded is the streaming seam: one recorded per-flow sample folds
// into the owning shard's instant group (windowed Jain) and rate/RTT
// sketches. Zero allocations.
func (o *Observer) SampleRecorded(f *netsim.Flow, p netsim.SeriesPoint) {
	s := &o.shards[f.Shard()]
	s.samples++
	s.groups.add(int64(p.T), p.ThroughputBps)
	s.rate.observe(p.ThroughputBps)
	if p.AvgRTT > 0 {
		s.rtt.observe(p.AvgRTT.Seconds())
	}
}

// QueueDropped implements netsim.Tap: a per-shard counter plus a flight
// entry.
func (o *Observer) QueueDropped(l *netsim.Link, bytes int, random bool) {
	sh := l.Shard()
	o.shards[sh].drops++
	r := 0.0
	if random {
		r = 1
	}
	o.rec.record(sh, FlightEntry{VT: int64(l.Now()), Kind: flightDrop, A: float64(bytes), B: r})
}

// FaultInjected implements netsim.Tap.
func (o *Observer) FaultInjected(l *netsim.Link, f *netsim.Flow, kind netsim.FaultKind, bytes int) {
	sh := l.Shard()
	o.shards[sh].faults++
	o.rec.record(sh, FlightEntry{
		VT: int64(l.Now()), Kind: flightFault, Flow: f.Name(),
		A: float64(bytes), B: float64(kind),
	})
}

// IntervalDelivered implements netsim.Tap: interval feedback goes into the
// flight ring (thr, RTT, losses, cwnd) — the context a post-mortem needs
// around a trigger.
func (o *Observer) IntervalDelivered(f *netsim.Flow, s cc.IntervalStats) {
	sh := f.Shard()
	thr := 0.0
	if s.Interval > 0 {
		thr = float64(s.AckedBytes) * 8 / s.Interval.Seconds()
	}
	o.rec.record(sh, FlightEntry{
		VT: int64(s.Now), Kind: flightInterval, Flow: f.Name(),
		A: thr, B: s.AvgRTT.Seconds(), C: float64(s.LostPackets), D: f.CC().CWND(),
	})
}
