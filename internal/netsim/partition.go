package netsim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/simcore"
)

// This file partitions a topology into shards for space-parallel execution
// on a simcore.Coordinator. The only inter-shard interactions in the
// emulator are packets traversing propagation-delay links — a packet that
// finishes serializing on link A arrives at the next link B one propagation
// delay later, an ACK reaches its sender one return leg after delivery, and
// a drop's loss-detection event reaches the sender one (at least base) RTT
// after the drop — so cutting the topology across propagation edges gives
// every cross-shard event a positive static lookahead, the precondition for
// conservative windowed synchronization.

// ErrZeroDelayCut reports a shard assignment that separates two links
// adjacent in some flow's path across a zero-propagation-delay edge: the
// downstream link would see packets the very instant the upstream link
// finishes serializing them, leaving no lookahead to synchronize on.
var ErrZeroDelayCut = errors.New("netsim: zero-delay link adjacency cut across shards")

// Partition maps every link and flow of a network to a shard and records
// the synchronization bounds of that cut.
type Partition struct {
	// Shards is the number of shards (1 = sequential, no synchronization).
	Shards int
	// LinkShard and FlowShard give each link/flow's shard by creation index.
	// A flow always lives on its first link's shard, so a freshly sent
	// packet's first arrival never crosses shards.
	LinkShard []int
	FlowShard []int
	// Lookahead[i][j] is the minimum virtual delay of any event shard i can
	// emit for shard j (0 = no such event exists): packet handoffs across
	// cut links, ACK return legs, and drop loss-detection bounds.
	Lookahead [][]time.Duration
	// Window is the global conservative synchronization window: the minimum
	// non-zero pairwise lookahead. 0 means the shards never exchange events
	// and can run fully independently.
	Window time.Duration
}

// lookaheadInto folds one candidate delay into the pairwise matrix.
func (p *Partition) lookaheadInto(src, dst int, d time.Duration) {
	if src == dst || d <= 0 {
		return
	}
	if cur := p.Lookahead[src][dst]; cur == 0 || d < cur {
		p.Lookahead[src][dst] = d
	}
}

// Partition computes a shard assignment with at most maxShards shards:
// links bound by zero-delay adjacencies stay together, and the resulting
// atoms are balanced across shards by traffic weight (largest first). A
// single-bottleneck topology — or maxShards ≤ 1 — yields one shard, which
// RunSharded executes sequentially with zero synchronization overhead.
func (n *Network) Partition(maxShards int) (*Partition, error) {
	nl := len(n.links)
	if nl == 0 {
		return nil, fmt.Errorf("netsim: partitioning a network with no links")
	}
	// Union links that may not be separated: consecutive path hops whose
	// upstream propagation delay is zero.
	parent := make([]int, nl)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	idx := make(map[*Link]int, nl)
	for i, l := range n.links {
		idx[l] = i
	}
	for _, f := range n.flows {
		for h := 0; h+1 < len(f.cfg.Path); h++ {
			if f.cfg.Path[h].cfg.Delay <= 0 {
				a, b := find(idx[f.cfg.Path[h]]), find(idx[f.cfg.Path[h+1]])
				if a != b {
					parent[b] = a
				}
			}
		}
	}
	// Collect atoms (in first-link order, for determinism) and weigh them by
	// the traffic they will carry: links plus the flows that touch them.
	atomOf := make([]int, nl)
	var atoms []int // representative link index per atom
	seen := map[int]int{}
	for i := range n.links {
		r := find(i)
		a, ok := seen[r]
		if !ok {
			a = len(atoms)
			seen[r] = a
			atoms = append(atoms, r)
		}
		atomOf[i] = a
	}
	weight := make([]int, len(atoms))
	for i := range n.links {
		weight[atomOf[i]]++
	}
	for _, f := range n.flows {
		for _, l := range f.cfg.Path {
			weight[atomOf[idx[l]]]++
		}
	}
	if maxShards < 1 {
		maxShards = 1
	}
	shards := len(atoms)
	if shards > maxShards {
		shards = maxShards
	}
	// Largest-weight-first bin packing into the emptiest shard. Ties break
	// on atom order, so the assignment is deterministic.
	order := make([]int, len(atoms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	load := make([]int, shards)
	atomShard := make([]int, len(atoms))
	for _, a := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		atomShard[a] = best
		load[best] += weight[a]
	}
	assign := make([]int, nl)
	for i := range n.links {
		assign[i] = atomShard[atomOf[i]]
	}
	return n.PartitionAssign(assign)
}

// PartitionAssign validates an explicit link→shard assignment and computes
// its lookahead bounds. It returns ErrZeroDelayCut if two links adjacent in
// some flow's path are assigned to different shards across a zero-delay
// edge. Shard indices must cover 0..max contiguously.
func (n *Network) PartitionAssign(linkShard []int) (*Partition, error) {
	if len(linkShard) != len(n.links) {
		return nil, fmt.Errorf("netsim: assignment covers %d links, network has %d", len(linkShard), len(n.links))
	}
	shards := 0
	for i, s := range linkShard {
		if s < 0 {
			return nil, fmt.Errorf("netsim: link %d assigned to negative shard %d", i, s)
		}
		if s+1 > shards {
			shards = s + 1
		}
	}
	used := make([]bool, shards)
	for _, s := range linkShard {
		used[s] = true
	}
	for s, u := range used {
		if !u {
			return nil, fmt.Errorf("netsim: shard %d has no links", s)
		}
	}
	p := &Partition{
		Shards:    shards,
		LinkShard: linkShard,
		FlowShard: make([]int, len(n.flows)),
		Lookahead: make([][]time.Duration, shards),
	}
	for i := range p.Lookahead {
		p.Lookahead[i] = make([]time.Duration, shards)
	}
	idx := make(map[*Link]int, len(n.links))
	for i, l := range n.links {
		idx[l] = i
	}
	for fi, f := range n.flows {
		fs := linkShard[idx[f.cfg.Path[0]]]
		p.FlowShard[fi] = fs
		for h := 0; h+1 < len(f.cfg.Path); h++ {
			up, down := f.cfg.Path[h], f.cfg.Path[h+1]
			su, sd := linkShard[idx[up]], linkShard[idx[down]]
			if su == sd {
				continue
			}
			if up.cfg.Delay <= 0 {
				return nil, fmt.Errorf("%w: links %d -> %d on flow %q", ErrZeroDelayCut, idx[up], idx[down], f.cfg.Name)
			}
			p.lookaheadInto(su, sd, up.cfg.Delay)
		}
		// ACK return leg: the last link's shard sends the ACK when the packet
		// leaves that link, and the flow's shard receives it the last link's
		// propagation plus one full return leg later.
		sl := linkShard[idx[f.cfg.Path[len(f.cfg.Path)-1]]]
		p.lookaheadInto(sl, fs, f.returnLeg)
		// Drop loss-detection: any link on the path may discard a packet and
		// notify the sender. The notification delay is the packet's send-time
		// srtt stamp; every RTT sample is ≥ baseRTT, so max(baseRTT, 1ms) is
		// a static floor (the 1ms from Flow.lossDetectDelay's clamp).
		la := f.baseRTT
		if la < time.Millisecond {
			la = time.Millisecond
		}
		for _, l := range f.cfg.Path {
			p.lookaheadInto(linkShard[idx[l]], fs, la)
		}
	}
	for i := range p.Lookahead {
		for _, d := range p.Lookahead[i] {
			if d > 0 && (p.Window == 0 || d < p.Window) {
				p.Window = d
			}
		}
	}
	return p, nil
}

// ShardRun reports how a sharded execution went.
type ShardRun struct {
	// Partition is the assignment the run used.
	Partition *Partition
	// Executed is the number of events each shard executed.
	Executed []int64
	// BarrierRounds is how many barrier episodes the coordinator used (0 for
	// a sequential fallback run) and FusedWindows how many windows skipped
	// the cross-shard exchange phase entirely.
	BarrierRounds int64
	FusedWindows  int64
}

// RunSharded executes the simulation to the horizon on up to maxShards
// shards. With one shard (or a topology that only partitions into one) it
// falls straight through to the sequential Run — identical behavior, zero
// synchronization overhead. With more, links and flows are pinned to
// per-shard engines and advanced in conservative lock-step windows by a
// simcore.Coordinator; the network's primary engine becomes shard 0, so
// an observer attached to it (the simcheck checker) sees the merged
// time-ordered event stream of all shards.
//
// Determinism: a sharded run is bit-reproducible for a given shard count,
// and its simcheck event-stream digest matches the sequential run of the
// same scenario exactly, except for scenarios where a flow's packet is
// dropped by a link owned by a different shard (there the loss-detection
// delay is the send-time srtt stamp rather than the srtt at drop time — see
// packet.lossDelay).
//
// Taps fire concurrently from different shards in a sharded run; the taps
// in this repository (simcheck's checker, obs's observer) are shard-safe.
func (n *Network) RunSharded(horizon time.Duration, maxShards int) (*ShardRun, error) {
	p, err := n.Partition(maxShards)
	if err != nil {
		return nil, err
	}
	if p.Shards <= 1 {
		executed := n.Run(horizon)
		return &ShardRun{Partition: p, Executed: []int64{int64(executed)}}, nil
	}
	engines := make([]*simcore.Engine, p.Shards)
	engines[0] = n.eng
	for i := 1; i < p.Shards; i++ {
		engines[i] = simcore.NewEngine()
	}
	coord := simcore.NewCoordinator(engines, p.Window)
	if n.whDue != nil {
		// The window hook rides the coordinator's exchange barrier instead of
		// the engine event hook: fire runs on shard 0's worker with every
		// other worker parked, so it may merge per-shard observer state.
		coord.SetWindowHook(n.whDue, n.whFire)
	}
	// Re-pool packets per shard so every arena stays single-goroutine: a
	// flow allocates and releases on its own shard, a link clones and
	// releases duplicates on its own shard.
	n.shardArenas = make([]pktArena, p.Shards)
	for i, l := range n.links {
		l.shard = p.LinkShard[i]
		l.eng = engines[l.shard]
		l.xs = coord.Shard(l.shard)
		l.arena = &n.shardArenas[l.shard]
	}
	for i, f := range n.flows {
		f.shard = p.FlowShard[i]
		f.eng = engines[f.shard]
		f.arena = &n.shardArenas[f.shard]
	}
	for _, f := range n.flows {
		f.armStart()
		f.reserveSeries(horizon)
	}
	coord.Run(horizon)
	n.retireLinks(horizon)
	return &ShardRun{
		Partition:     p,
		Executed:      coord.ExecutedPerShard(),
		BarrierRounds: coord.BarrierRounds(),
		FusedWindows:  coord.FusedWindows(),
	}, nil
}
