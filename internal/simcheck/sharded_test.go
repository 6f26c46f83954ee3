package simcheck

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/vegas"
	"repro/internal/netsim"
)

// shardedParkingLot is a loss-free 3-bottleneck chain: vegas keeps queues
// near-empty, so no packet ever drops and the sharded event stream must
// reproduce the sequential one bit-for-bit (drops on foreign shards are the
// one documented divergence — see netsim.Network.RunSharded).
func shardedParkingLot(seed uint64) *netsim.Network {
	n := netsim.New(netsim.Config{Seed: seed})
	l0 := n.AddLink(netsim.LinkConfig{Rate: 40e6, Delay: 8 * time.Millisecond, BufferBytes: 512_000})
	l1 := n.AddLink(netsim.LinkConfig{Rate: 40e6, Delay: 7 * time.Millisecond, BufferBytes: 512_000})
	l2 := n.AddLink(netsim.LinkConfig{Rate: 40e6, Delay: 6 * time.Millisecond, BufferBytes: 512_000})
	links := []*netsim.Link{l0, l1, l2}
	n.AddFlow(netsim.FlowConfig{
		Name: "long", Path: links,
		Alg: vegas.New(),
	})
	for i, l := range links {
		l := l
		n.AddFlow(netsim.FlowConfig{
			Name: fmt.Sprintf("local-%d", i), Path: []*netsim.Link{l},
			Start:       time.Duration(i) * 200 * time.Millisecond,
			ExtraOneWay: time.Duration(i) * time.Millisecond,
			Alg:         vegas.New(),
		})
	}
	return n
}

// TestShardedDigestMatchesSequential is the determinism guarantee of the
// sharded engine: the full simcheck digest — event-stream fold, event
// count, per-flow statistics and series, per-link counters — of a 3-shard
// run is bit-identical to the sequential run of the same topology.
func TestShardedDigestMatchesSequential(t *testing.T) {
	const horizon = 5 * time.Second

	seq := shardedParkingLot(17)
	ckSeq := Attach(seq)
	seq.Run(horizon)
	if vs := ckSeq.Finish(); len(vs) != 0 {
		t.Fatalf("sequential run violated invariants: %v", vs[0])
	}

	shd := shardedParkingLot(17)
	ckShd := Attach(shd)
	sr, err := shd.RunSharded(horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Partition.Shards != 3 {
		t.Fatalf("parking lot ran on %d shards, want 3", sr.Partition.Shards)
	}
	if vs := ckShd.Finish(); len(vs) != 0 {
		t.Fatalf("sharded run violated invariants: %v", vs[0])
	}
	for _, l := range shd.Links() {
		if l.Stats().OverflowDrops != 0 || l.Stats().RandomDrops != 0 {
			t.Fatal("parity scenario dropped packets; redesign it loss-free")
		}
	}

	if ckSeq.Events() != ckShd.Events() {
		t.Fatalf("event counts differ: sequential %d, sharded %d", ckSeq.Events(), ckShd.Events())
	}
	if ckSeq.StreamHash() != ckShd.StreamHash() {
		t.Fatalf("event-stream hash differs: sequential %016x, sharded %016x",
			ckSeq.StreamHash(), ckShd.StreamHash())
	}
	if ckSeq.Digest() != ckShd.Digest() {
		t.Fatalf("digest differs: sequential %016x, sharded %016x", ckSeq.Digest(), ckShd.Digest())
	}
}

// TestShardedDigestRepeatable: two sharded runs at the same shard count are
// bit-identical even with drops in play (cubic overload, foreign-shard
// losses included).
func TestShardedDigestRepeatable(t *testing.T) {
	run := func() uint64 {
		n := shardedParkingLot(23)
		// Oversubscribe with extra unpaced senders to force DropTail drops.
		for i, l := range n.Links() {
			l := l
			n.AddFlow(netsim.FlowConfig{
				Name: fmt.Sprintf("blast-%d", i), Path: []*netsim.Link{l},
				Alg: cc.NewManual(60e6),
			})
		}
		ck := Attach(n)
		if _, err := n.RunSharded(3*time.Second, 3); err != nil {
			t.Fatal(err)
		}
		ck.Finish()
		if err := ck.Err(); err != nil {
			t.Fatal(err)
		}
		return ck.Digest()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("repeated sharded runs diverged: %016x vs %016x", a, b)
	}
}
