package netsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
)

func TestPartitionSingleBottleneckIsOneShard(t *testing.T) {
	n := New(Config{Seed: 1})
	l := n.AddLink(LinkConfig{Rate: 20e6, Delay: 10 * time.Millisecond, BufferBytes: 75_000})
	n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l}, Alg: cc.NewManual(10e6)})
	n.AddFlow(FlowConfig{Name: "b", Path: []*Link{l}, Alg: cc.NewManual(10e6)})
	p, err := n.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 1 {
		t.Fatalf("single bottleneck partitioned into %d shards, want 1", p.Shards)
	}
	if p.Window != 0 {
		t.Fatalf("single shard has window %v, want 0 (no synchronization)", p.Window)
	}
	// The sequential fall-through keeps every object on the primary engine:
	// no coordinator, no per-shard engines, no cross-shard handles.
	sr, err := n.RunSharded(2*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Executed) != 1 {
		t.Fatalf("1-shard run reported %d shards", len(sr.Executed))
	}
	if l.xs != nil || l.eng != n.Engine() {
		t.Fatal("1-shard run attached sharding state to the link")
	}
}

func TestPartitionAssignRejectsZeroDelayCut(t *testing.T) {
	n := New(Config{Seed: 1})
	l0 := n.AddLink(LinkConfig{Rate: 20e6, Delay: 0, BufferBytes: 75_000})
	l1 := n.AddLink(LinkConfig{Rate: 20e6, Delay: 5 * time.Millisecond, BufferBytes: 75_000})
	n.AddFlow(FlowConfig{Name: "a", Path: []*Link{l0, l1}, Alg: cc.NewManual(10e6)})
	if _, err := n.PartitionAssign([]int{0, 1}); !errors.Is(err, ErrZeroDelayCut) {
		t.Fatalf("zero-delay cut returned %v, want ErrZeroDelayCut", err)
	}
	// The automatic partitioner must absorb the constraint instead: both
	// links end up in one shard.
	p, err := n.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 1 {
		t.Fatalf("auto partition split a zero-delay adjacency into %d shards", p.Shards)
	}
}

// parkingLot builds the canonical 3-bottleneck chain: one long flow across
// all three links plus one local flow per link. rates/delays are fixed so
// the partition and lookahead matrix are predictable.
func parkingLot(seed uint64, localRate float64) (*Network, []*Link) {
	n := New(Config{Seed: seed})
	l0 := n.AddLink(LinkConfig{Rate: 50e6, Delay: 8 * time.Millisecond, BufferBytes: 512_000})
	l1 := n.AddLink(LinkConfig{Rate: 50e6, Delay: 7 * time.Millisecond, BufferBytes: 512_000})
	l2 := n.AddLink(LinkConfig{Rate: 50e6, Delay: 6 * time.Millisecond, BufferBytes: 512_000})
	links := []*Link{l0, l1, l2}
	n.AddFlow(FlowConfig{Name: "long", Path: links, Alg: cc.NewManual(8e6)})
	for i, l := range links {
		l := l
		n.AddFlow(FlowConfig{
			Name: fmt.Sprintf("local-%d", i), Path: []*Link{l},
			Start: time.Duration(i) * 100 * time.Millisecond,
			Alg:   cc.NewManual(localRate),
		})
	}
	return n, links
}

func TestPartitionParkingLotLookahead(t *testing.T) {
	n, _ := parkingLot(3, 10e6)
	p, err := n.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 3 {
		t.Fatalf("parking lot partitioned into %d shards, want 3", p.Shards)
	}
	for i, want := range []int{0, 1, 2} {
		if p.LinkShard[i] != want {
			t.Fatalf("link shards %v, want [0 1 2]", p.LinkShard)
		}
	}
	if p.FlowShard[0] != 0 {
		t.Fatalf("long flow on shard %d, want 0 (its first link's shard)", p.FlowShard[0])
	}
	// Forward packet handoffs: cut delay of the upstream link.
	if got := p.Lookahead[0][1]; got != 8*time.Millisecond {
		t.Fatalf("lookahead 0->1 = %v, want 8ms (l0 delay)", got)
	}
	if got := p.Lookahead[1][2]; got != 7*time.Millisecond {
		t.Fatalf("lookahead 1->2 = %v, want 7ms (l1 delay)", got)
	}
	// Backward: the long flow's ACK return leg (21ms) from the last link's
	// shard beats its drop-detection bound (base RTT 42ms); from the middle
	// shard only the drop bound applies.
	if got := p.Lookahead[2][0]; got != 21*time.Millisecond {
		t.Fatalf("lookahead 2->0 = %v, want 21ms (return leg)", got)
	}
	if got := p.Lookahead[1][0]; got != 42*time.Millisecond {
		t.Fatalf("lookahead 1->0 = %v, want 42ms (base RTT drop bound)", got)
	}
	if p.Window != 7*time.Millisecond {
		t.Fatalf("window %v, want 7ms (minimum pairwise lookahead)", p.Window)
	}
}

// netFingerprint serializes everything observable about a finished run.
func netFingerprint(n *Network) string {
	var b strings.Builder
	for _, f := range n.Flows() {
		fmt.Fprintf(&b, "%s %+v\n", f.Name(), f.Stats())
		for _, pt := range f.Series() {
			fmt.Fprintf(&b, "%+v\n", pt)
		}
	}
	for i, l := range n.Links() {
		fmt.Fprintf(&b, "link%d %+v %+v\n", i, l.Stats(), l.FaultStats())
	}
	return b.String()
}

// A loss-free sharded run must be observably identical to the sequential
// run of the same topology: same flow stats, same series, same link stats.
func TestRunShardedMatchesSequential(t *testing.T) {
	const horizon = 4 * time.Second
	seq, _ := parkingLot(7, 10e6)
	seq.Run(horizon)
	want := netFingerprint(seq)

	shd, _ := parkingLot(7, 10e6)
	sr, err := shd.RunSharded(horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Partition.Shards != 3 {
		t.Fatalf("ran on %d shards, want 3", sr.Partition.Shards)
	}
	// The long flow's last link delivers to a sender on another shard, so
	// its ACKs take the cross-shard send that carries the arrival stamp.
	long := shd.Flows()[0]
	if path := long.Config().Path; path[len(path)-1].Shard() == long.Shard() {
		t.Fatalf("long flow's last link shares shard %d with its sender; the cross-shard ACK path is not exercised", long.Shard())
	}
	if long.Stats().AckedPackets == 0 {
		t.Fatal("long flow received no ACKs")
	}
	var total int64
	for i, e := range sr.Executed {
		if e == 0 {
			t.Fatalf("shard %d executed no events: %v", i, sr.Executed)
		}
		total += e
	}
	if got := netFingerprint(shd); got != want {
		t.Errorf("sharded run diverged from sequential:\n--- sequential ---\n%.600s\n--- sharded ---\n%.600s", want, got)
	}
	if now := shd.Now(); now != horizon {
		t.Fatalf("network clock %v after sharded run, want %v", now, horizon)
	}
}

// Overloaded links force DropTail drops — including drops of the long
// flow's packets on foreign shards (the send-time lossDelay path). Two runs
// at the same shard count must be bit-identical.
func TestRunShardedDeterministicUnderDrops(t *testing.T) {
	const horizon = 3 * time.Second
	run := func() (string, *ShardRun) {
		n, links := parkingLot(11, 60e6) // locals alone oversubscribe every link
		sr, err := n.RunSharded(horizon, 3)
		if err != nil {
			t.Fatal(err)
		}
		drops := int64(0)
		for _, l := range links {
			drops += l.Stats().OverflowDrops
		}
		if drops == 0 {
			t.Fatal("overload scenario produced no drops; test is vacuous")
		}
		return netFingerprint(n), sr
	}
	a, ra := run()
	b, rb := run()
	if a != b {
		t.Error("two sharded runs of the same scenario diverged")
	}
	for i := range ra.Executed {
		if ra.Executed[i] != rb.Executed[i] {
			t.Fatalf("per-shard event counts diverged: %v vs %v", ra.Executed, rb.Executed)
		}
	}
}
