package exp

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/vegas"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// withObs installs a fresh obs runtime for the duration of one test body and
// restores the package global afterwards.
func withObs(t *testing.T, o obs.Options, body func(rt *obs.Runtime)) {
	t.Helper()
	if Obs != nil {
		t.Fatal("test requires the package-level obs runtime to start nil")
	}
	rt := obs.New(o)
	Obs = rt
	defer func() { Obs = nil }()
	body(rt)
}

// TestObsStreamingJainMatchesPostHoc is the headline exactness gate: on both
// canonical golden scenarios, the cumulative streaming Jain produced live by
// the constant-memory observer must agree with metrics.TimewiseJain computed
// post-hoc from the full recorded series to within 1e-6.
func TestObsStreamingJainMatchesPostHoc(t *testing.T) {
	for _, s := range canonicalScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			withObs(t, obs.Options{Window: 500 * time.Millisecond}, func(rt *obs.Runtime) {
				r, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if r.Stream == nil {
					t.Fatal("run with obs attached produced no streaming summary")
				}
				want := metrics.TimewiseJain(r.Flows)
				if math.Abs(r.Stream.FinalJain-want) > 1e-6 {
					t.Fatalf("streaming Jain %.9f vs post-hoc %.9f", r.Stream.FinalJain, want)
				}
				if r.Stream.Samples == 0 || r.Stream.Snapshots == 0 {
					t.Fatalf("summary not populated: %+v", r.Stream)
				}
				latest, ok := rt.State().Latest()
				if !ok || latest.T == 0 {
					t.Error("live state saw no snapshots")
				}
			})
		})
	}
}

// TestObsDigestParity pins the determinism contract: attaching the streaming
// observer must leave a checked run's event-stream digest bit-identical,
// because obs only observes at taps and window barriers — it never draws
// randomness or schedules events.
func TestObsDigestParity(t *testing.T) {
	for _, s := range canonicalScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			base, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Checked || base.Digest == 0 {
				t.Fatalf("baseline run not checked (checked=%v digest=%#x)", base.Checked, base.Digest)
			}
			withObs(t, obs.Options{Window: 250 * time.Millisecond}, func(rt *obs.Runtime) {
				instr, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if instr.Digest != base.Digest {
					t.Fatalf("obs perturbed the simulation: digest %#016x (observed) != %#016x (bare)",
						instr.Digest, base.Digest)
				}
			})
		})
	}
}

// TestObsShardedDigestParity repeats the parity claim where the window hook
// rides the coordinator barrier: a sharded huge run with obs attached must
// digest identically to the same run without it.
func TestObsShardedDigestParity(t *testing.T) {
	opt := HugeOptions{
		Segments:   4,
		TotalFlows: 96,
		Rate:       200e6,
		Horizon:    1500 * time.Millisecond,
		Seed:       5,
		Shards:     4,
		Check:      true,
	}
	// A custom CC makes the run uncacheable, so no store interference; the
	// loss-free vegas mesh is the same digest-parity regime the sharded
	// engine tests pin.
	opt.CC = func(uint64) cc.Algorithm { return vegas.New() }
	bare, err := RunHuge(opt)
	if err != nil {
		t.Fatal(err)
	}
	withObs(t, obs.Options{Window: 200 * time.Millisecond}, func(rt *obs.Runtime) {
		instr, err := RunHuge(opt)
		if err != nil {
			t.Fatal(err)
		}
		if instr.Digest != bare.Digest {
			t.Fatalf("obs perturbed the sharded run: %#016x != %#016x", instr.Digest, bare.Digest)
		}
		if instr.Stream == nil || instr.Stream.Samples == 0 {
			t.Fatalf("sharded huge run produced no streaming summary: %+v", instr.Stream)
		}
		if instr.Stream.FinalJain <= 0 || instr.Stream.FinalJain > 1 {
			t.Fatalf("FinalJain %v out of range", instr.Stream.FinalJain)
		}
	})
}

// TestObsHugeMeshSummaryPinned pins, as bits, the rate and RTT quantiles obs
// streams on a 10,000-flow two-shard mesh. The values were recorded when obs
// kept its own quantile sketch; they pin that the shared histogram it now
// uses (telemetry.Histogram: per-shard accumulators merged at barriers, then
// a nearest-rank walk) left every quantile bit-identical.
func TestObsHugeMeshSummaryPinned(t *testing.T) {
	withObs(t, obs.Options{}, func(*obs.Runtime) {
		res, err := RunHuge(HugeOptions{TotalFlows: 10_000, Shards: 2, Seed: 1, Horizon: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stream
		if res.ShardCount != 2 || s.Samples != 38002 {
			t.Fatalf("mesh ran on %d shards with %d samples, want 2 and 38002", res.ShardCount, s.Samples)
		}
		got := [6]uint64{}
		for i, v := range []float64{s.RateP50, s.RateP95, s.RateP99, s.RTTP50, s.RTTP95, s.RTTP99} {
			got[i] = math.Float64bits(v)
		}
		want := [6]uint64{
			0x4123000000000000, // rate p50 622592 bps
			0x4143000000000000, // rate p95 2.490368e6 bps
			0x4157000000000000, // rate p99 6.029312e6 bps
			0x3fa7000000000000, // RTT p50 0.044921875 s
			0x3fa7000000000000, // RTT p95 0.044921875 s
			0x3fc1000000000000, // RTT p99 0.1328125 s
		}
		if got != want {
			t.Fatalf("rate/RTT p50/p95/p99 bits = %016x, want %016x", got, want)
		}
	})
}

// TestObsFlightRecorderOnFaults runs a fault-injected scenario and requires a
// non-empty flight dump: injected losses must land in the ring as fault
// events and the burst trigger must fire a JSONL dump on its own.
func TestObsFlightRecorderOnFaults(t *testing.T) {
	dir := t.TempDir()
	s := Scenario{
		Name:        "obs-faulty",
		Rate:        20e6,
		OneWayDelay: 10 * time.Millisecond,
		BufferBytes: 64 * 1500,
		Horizon:     4 * time.Second,
		Seed:        3,
		Faults: &faults.Config{
			GE: &faults.GEConfig{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 1},
		},
		Flows: []FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic"}},
	}
	withObs(t, obs.Options{FlightDir: dir, FaultBurst: 16}, func(rt *obs.Runtime) {
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stream == nil || r.Stream.Faults == 0 {
			t.Fatalf("fault-injected run recorded no faults: %+v", r.Stream)
		}
		dumps, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if len(dumps) == 0 {
			t.Fatal("fault burst produced no flight dump")
		}
		info, err := os.Stat(dumps[0])
		if err != nil || info.Size() == 0 {
			t.Fatalf("flight dump %q empty (err %v)", dumps[0], err)
		}
	})
}

// TestObsStreamSurvivesStore pins the stream round trip: a run stored with
// the obs layer attached and served back without it still carries the live
// run's streaming summary.
func TestObsStreamSurvivesStore(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(runstore.Options{Dir: dir, Fsync: runstore.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	Store, StoreResume = st, true
	defer func() { Store, StoreResume = nil, false }()

	s := canonicalScenarios()[0]
	var liveJain float64
	withObs(t, obs.Options{Window: 500 * time.Millisecond}, func(rt *obs.Runtime) {
		live, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if live.Cached {
			t.Fatal("first run reported cached")
		}
		liveJain = live.Stream.FinalJain
	})

	cached, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second run not served from the store")
	}
	if cached.Stream == nil {
		t.Fatal("cached result lost the streaming summary")
	}
	if math.Abs(cached.Stream.FinalJain-liveJain) > 1e-12 {
		t.Fatalf("stream summary changed through the store: %v vs %v", cached.Stream.FinalJain, liveJain)
	}
}
