package netsim

import (
	"testing"
	"time"

	"repro/internal/cc/cubic"
	"repro/internal/faults"
)

// faultDumbbell runs a 2-flow cubic dumbbell with the given fault config and
// returns the network after the run.
func faultDumbbell(t *testing.T, seed uint64, fc *faults.Config) *Network {
	t.Helper()
	n := New(Config{Seed: seed})
	l := n.AddLink(LinkConfig{
		Rate:        20e6,
		Delay:       10 * time.Millisecond,
		BufferBytes: 50_000,
		Faults:      fc,
	})
	for i := 0; i < 2; i++ {
		n.AddFlow(FlowConfig{
			Name: "f" + string(rune('0'+i)),
			Path: []*Link{l},
			Alg:  cubic.New(),
		})
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	n.Run(8 * time.Second)
	return n
}

// closed asserts the flow-level conservation that must survive any fault
// config: packets the sender counted can only be acked, lost, or in flight.
func closed(t *testing.T, n *Network) {
	t.Helper()
	for _, f := range n.Flows() {
		st := f.Stats()
		if inflight := st.SentPackets - st.AckedPackets - st.LostPackets; inflight < 0 {
			t.Errorf("flow %s: negative in-flight (sent %d acked %d lost %d)",
				st.Name, st.SentPackets, st.AckedPackets, st.LostPackets)
		}
		if st.AckedPackets == 0 {
			t.Errorf("flow %s: nothing delivered under faults", st.Name)
		}
	}
}

func TestBurstLossDropsAndAccountingCloses(t *testing.T) {
	n := faultDumbbell(t, 1, &faults.Config{
		GE: &faults.GEConfig{PGoodBad: 0.005, PBadGood: 0.25, LossBad: 1},
	})
	fs := n.Links()[0].FaultStats()
	if fs.BurstDrops == 0 {
		t.Fatal("no burst drops injected")
	}
	var lost int64
	for _, f := range n.Flows() {
		lost += f.Stats().LostPackets
	}
	if lost < fs.BurstDrops {
		t.Errorf("flows detected %d losses but the injector dropped %d", lost, fs.BurstDrops)
	}
	closed(t, n)
}

func TestBlackoutDropsEverythingWhileDown(t *testing.T) {
	n := faultDumbbell(t, 2, &faults.Config{
		Flap: &faults.FlapConfig{MeanUp: 900 * time.Millisecond, MeanDown: 100 * time.Millisecond},
	})
	fs := n.Links()[0].FaultStats()
	if fs.BlackoutDrops == 0 {
		t.Fatal("no blackout drops despite ~10%% downtime")
	}
	closed(t, n)
}

func TestDuplicationWastesLinkCapacityOnly(t *testing.T) {
	n := faultDumbbell(t, 3, &faults.Config{DupProb: 0.05})
	l := n.Links()[0]
	fs := l.FaultStats()
	if fs.Duplicated == 0 {
		t.Fatal("no duplicates injected")
	}
	// Duplicates consume link capacity but never surface in sender
	// accounting: the link must have delivered more packets than the flows
	// ever sent minus what it dropped.
	var sent int64
	for _, f := range n.Flows() {
		sent += f.Stats().SentPackets
	}
	st := l.Stats()
	if st.DeliveredPackets+st.OverflowDrops+st.RandomDrops <= sent {
		t.Errorf("duplicates invisible at the link: delivered %d + dropped %d ≤ sent %d",
			st.DeliveredPackets, st.OverflowDrops+st.RandomDrops, sent)
	}
	closed(t, n)
}

func TestReorderAndJitterKeepFlowsAlive(t *testing.T) {
	n := faultDumbbell(t, 4, &faults.Config{
		ReorderProb:     0.03,
		ReorderMaxDelay: 15 * time.Millisecond,
		JitterProb:      0.05,
		JitterMax:       8 * time.Millisecond,
	})
	fs := n.Links()[0].FaultStats()
	if fs.Reordered == 0 || fs.JitterSpikes == 0 {
		t.Fatalf("faults not exercised: %+v", fs)
	}
	closed(t, n)
}

// TestFaultRunsDeterministic re-runs the same fault config and seed and
// demands identical flow statistics and fault counters.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := &faults.Config{
		GE:              &faults.GEConfig{PGoodBad: 0.01, PBadGood: 0.3, LossBad: 1},
		ReorderProb:     0.02,
		ReorderMaxDelay: 10 * time.Millisecond,
		DupProb:         0.01,
		JitterProb:      0.02,
		JitterMax:       5 * time.Millisecond,
		Flap:            &faults.FlapConfig{MeanUp: 2 * time.Second, MeanDown: 100 * time.Millisecond},
	}
	a := faultDumbbell(t, 7, cfg)
	b := faultDumbbell(t, 7, cfg)
	if fa, fb := a.Links()[0].FaultStats(), b.Links()[0].FaultStats(); fa != fb {
		t.Fatalf("fault stats diverged: %+v vs %+v", fa, fb)
	}
	for i := range a.Flows() {
		if sa, sb := a.Flows()[i].Stats(), b.Flows()[i].Stats(); sa != sb {
			t.Fatalf("flow %d stats diverged:\n%+v\n%+v", i, sa, sb)
		}
	}
}

// TestFaultConfigValidatedByNetwork ensures broken fault configs are caught
// at Validate time.
func TestFaultConfigValidatedByNetwork(t *testing.T) {
	n := New(Config{Seed: 1})
	l := n.AddLink(LinkConfig{
		Rate:        10e6,
		Delay:       5 * time.Millisecond,
		BufferBytes: 10_000,
		Faults:      &faults.Config{ReorderProb: 0.5}, // no ReorderMaxDelay
	})
	n.AddFlow(FlowConfig{Name: "f", Path: []*Link{l}, Alg: cubic.New()})
	if err := n.Validate(); err == nil {
		t.Fatal("Validate accepted a reorder config with no max delay")
	}
}
