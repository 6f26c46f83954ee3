package exp

import (
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// This file builds the huge-scale stress scenario: a parking-lot mesh — a
// chain of bottleneck links with thousands of single-segment flows plus a
// population of multi-segment flows stitching the chain together — sized in
// the tens of thousands of flows. It exists to exercise the sharded engine
// (netsim.RunSharded) at the scale the sequential engine cannot reach in
// interactive time: bench's mesh_100k workload runs it at 100k flows, and
// BenchmarkScenarioMillion at a million.

// HugeOptions parameterizes the parking-lot mesh.
type HugeOptions struct {
	// Segments is the number of chained bottleneck links (default 8). Every
	// segment is a partition atom, so shard counts up to Segments scale.
	Segments int
	// TotalFlows is the flow population (default 10_000).
	// One in every spanStride flows crosses several consecutive segments; the
	// rest are single-segment locals spread round-robin.
	TotalFlows int
	// Rate is each segment's capacity in bits/second (default 1 Gbps).
	Rate float64
	// BufferBytes overrides each segment's queue capacity (default ~1 BDP at
	// a 30 ms RTT: Rate/8 · 0.030). The reduced-flow digest-parity smoke runs
	// deep-buffered so slow-start overshoot cannot cause drops — a drop on a
	// foreign shard is the one documented sequential/sharded divergence.
	BufferBytes int
	// Horizon is the simulated duration (default 2 s).
	Horizon time.Duration
	// Shards caps the shard count for RunSharded (default 1 = sequential).
	Shards int
	// Seed drives all randomness (pacing jitter).
	Seed uint64
	// Check attaches a simcheck invariant checker and records its digest.
	Check bool
	// CC overrides the per-flow controller factory (default: cubic, the
	// cheapest full controller — the benchmark measures the engine, not the
	// scheme).
	CC func(seed uint64) cc.Algorithm
}

// spanStride makes every 16th flow a multi-segment one, so a sharded run has
// steady cross-shard traffic without being dominated by it.
const spanStride = 16

func (o *HugeOptions) defaults() {
	if o.Segments <= 0 {
		o.Segments = 8
	}
	if o.TotalFlows <= 0 {
		o.TotalFlows = 10_000
	}
	if o.Rate <= 0 {
		o.Rate = 1e9
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = int(o.Rate / 8 * 0.030) // ~1 BDP at 30 ms RTT
	}
	if o.Horizon <= 0 {
		o.Horizon = 2 * time.Second
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.CC == nil {
		o.CC = func(uint64) cc.Algorithm { return cubic.New() }
	}
}

// HugeResult reports one huge-scale run.
type HugeResult struct {
	// FlowCount and Segments echo the built topology.
	FlowCount int
	Segments  int
	// ShardCount is the number of shards the run actually used (a chain of n
	// segments partitions into min(n, Shards) shards).
	ShardCount int
	// Events is the total number of discrete events executed; ExecutedPerShard
	// breaks it down by shard.
	Events           int64
	ExecutedPerShard []int64
	// Digest is the simcheck digest (zero unless Check was set).
	Digest uint64
	// Stream is the streaming-observability summary (nil unless exp.Obs is
	// set). At huge scale this is the ONLY per-run fairness view: the mesh
	// records no per-flow series, so post-hoc metrics are unavailable.
	Stream *obs.StreamSummary
}

// BuildHuge assembles the parking-lot mesh without running it, so tests and
// benchmarks can attach observers first. It returns the network and the
// resolved options.
func BuildHuge(o HugeOptions) (*netsim.Network, HugeOptions) {
	o.defaults()
	n := netsim.New(netsim.Config{Seed: o.Seed})
	links := make([]*netsim.Link, o.Segments)
	for i := range links {
		links[i] = n.AddLink(netsim.LinkConfig{
			Rate: o.Rate,
			// Distinct positive delays keep every inter-segment edge cuttable
			// and give the partition a nontrivial lookahead matrix.
			Delay:       time.Duration(5+i%4) * time.Millisecond,
			BufferBytes: o.BufferBytes,
		})
	}
	// Stagger starts across the first quarter of the horizon so the engine
	// ramps up instead of detonating every flow at t=0.
	stagger := o.Horizon / 4 / time.Duration(o.TotalFlows)
	for i := 0; i < o.TotalFlows; i++ {
		seed := o.Seed*1_000_003 + uint64(i) + 1
		var path []*netsim.Link
		if i%spanStride == 0 {
			// Spanning flow: 2–4 consecutive segments starting at a rotating
			// offset — the cross-shard workload.
			span := 2 + (i/spanStride)%3
			if span > o.Segments {
				span = o.Segments
			}
			at := (i / spanStride) % (o.Segments - span + 1)
			path = links[at : at+span]
		} else {
			path = links[i%o.Segments : i%o.Segments+1]
		}
		// Nameless flows with a direct Alg handle: at a million flows, the
		// per-flow Sprintf name and factory closure would be three heap
		// allocations each for values the mesh never reads.
		n.AddFlow(netsim.FlowConfig{
			Path:  path,
			Start: time.Duration(i) * stagger,
			Alg:   o.CC(seed),
		})
	}
	return n, o
}

// RunHuge builds the huge parking-lot mesh and runs it through the run
// pipeline (see execute), reporting event counts (and, with Check, the
// simcheck digest). Same options, same shard count → bit-identical results.
// With a resumable store attached, a previously completed run with the same
// resolved options is served from the store.
func RunHuge(o HugeOptions) (*HugeResult, error) {
	customCC := o.CC != nil
	o.defaults()
	shards := o.Shards
	if shards > o.Segments {
		shards = o.Segments // one atom per segment: the partition never uses more
	}
	return execute(job[*HugeResult]{
		name:    "huge",
		seed:    o.Seed,
		horizon: o.Horizon,
		shards:  shards,
		check:   o.Check,
		build: func() (*netsim.Network, error) {
			n, _ := BuildHuge(o)
			return n, nil
		},
		shape: func(_ *netsim.Network, out outcome) *HugeResult {
			res := &HugeResult{
				FlowCount:        o.TotalFlows,
				Segments:         o.Segments,
				ShardCount:       out.run.Partition.Shards,
				ExecutedPerShard: out.run.Executed,
				Digest:           out.digest,
				Stream:           out.stream,
			}
			for _, e := range out.run.Executed {
				res.Events += e
			}
			return res
		},
		key:     func() (runstore.Key, bool) { return HugeKey(o, customCC) },
		record:  func(key runstore.Key, r *HugeResult) *runstore.Record { return hugeRecord(key, o, r) },
		restore: func(rec *runstore.Record) *HugeResult { return hugeFromRecord(o, rec) },
	})
}
