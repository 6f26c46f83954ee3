package exp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/traces"
)

// attachTestStore opens a store in a temp dir, attaches it globally, and
// restores the previous attachment on cleanup.
func attachTestStore(t *testing.T, dir string, resume bool) *runstore.Store {
	t.Helper()
	st, err := runstore.Open(runstore.Options{Dir: dir, Fsync: runstore.FsyncNever})
	if err != nil {
		t.Fatalf("runstore.Open: %v", err)
	}
	prevStore, prevResume := Store, StoreResume
	Store, StoreResume = st, resume
	t.Cleanup(func() {
		Store, StoreResume = prevStore, prevResume
		st.Close()
	})
	return st
}

// storeJobs is a small cacheable batch mixing schemes, faults-free links,
// staggered starts, and RTT heterogeneity.
func storeJobs() []Scenario {
	return []Scenario{
		{
			Name: "store-cubic-pair", Rate: 20e6, OneWayDelay: 10 * time.Millisecond,
			BufferBytes: 50_000, Horizon: 3 * time.Second, Seed: 11,
			Flows: []FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic", Start: time.Second}},
		},
		{
			Name: "store-bbr-lossy", Rate: 25e6, OneWayDelay: 8 * time.Millisecond,
			BufferBytes: 60_000, LossRate: 0.002, Horizon: 3 * time.Second, Seed: 12,
			Flows: []FlowSpec{{Scheme: "bbr"}, {Scheme: "cubic", ExtraOneWay: 15 * time.Millisecond}},
		},
		{
			Name: "store-vegas-solo", Rate: 15e6, OneWayDelay: 12 * time.Millisecond,
			BufferBytes: 40_000, Horizon: 2 * time.Second, Seed: 13,
			Flows: []FlowSpec{{Scheme: "vegas"}},
		},
	}
}

// summaryFingerprint serializes everything a figure runner can read from a
// result via the stored-summary surface, so cached and live results compare
// byte-identical or not at all.
func summaryFingerprint(r *RunResult) string {
	var b []byte
	b = fmt.Appendf(b, "util=%v checked=%v digest=%016x link=%+v\n",
		r.Utilization, r.Checked, r.Digest, r.LinkSummary)
	for _, f := range r.FlowSummaries {
		deg, nf := f.JuryCounters()
		b = fmt.Appendf(b, "%s rtt=%v stats=%+v jury=%d/%d\n", f.Name(), f.BaseRTT(), f.Stats(), deg, nf)
		for _, p := range f.Series() {
			b = fmt.Appendf(b, "%+v\n", p)
		}
	}
	return string(b)
}

// TestRunManyWarmStoreSkipsSimulation: a warm resumable store serves a
// repeat sweep with ZERO simulator invocations and digest-identical results,
// and a warm non-resuming store re-runs everything while re-verifying
// digests against the stored records, without growing the WAL.
func TestRunManyWarmStoreSkipsSimulation(t *testing.T) {
	jobs := storeJobs()
	dir := t.TempDir()
	attachTestStore(t, dir, true)

	liveRuns.Store(0)
	cold, err := RunMany(jobs)
	if err != nil {
		t.Fatalf("cold RunMany: %v", err)
	}
	if n := liveRuns.Load(); n != int64(len(jobs)) {
		t.Fatalf("cold sweep executed %d simulations, want %d", n, len(jobs))
	}
	if Store.Len() != len(jobs) {
		t.Fatalf("store holds %d records after %d runs", Store.Len(), len(jobs))
	}

	liveRuns.Store(0)
	warm, err := RunMany(jobs)
	if err != nil {
		t.Fatalf("warm RunMany: %v", err)
	}
	if n := liveRuns.Load(); n != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", n)
	}
	for i := range jobs {
		if !warm[i].Cached {
			t.Fatalf("warm result %d not marked Cached", i)
		}
		if warm[i].Digest != cold[i].Digest {
			t.Fatalf("job %d: warm digest %016x != cold %016x", i, warm[i].Digest, cold[i].Digest)
		}
		if got, want := summaryFingerprint(warm[i]), summaryFingerprint(cold[i]); got != want {
			t.Fatalf("job %d: cached result differs from live run:\n got %s\nwant %s", i, got, want)
		}
	}

	// Recording without resuming re-executes and re-verifies digests; the
	// re-runs reproduce the stored records, so the WAL stays byte-identical.
	walPath := filepath.Join(dir, "wal.log")
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	StoreResume = false
	for sweep := 1; sweep <= 2; sweep++ {
		liveRuns.Store(0)
		if _, err := RunMany(jobs); err != nil {
			t.Fatalf("re-verify RunMany #%d: %v", sweep, err)
		}
		if n := liveRuns.Load(); n != int64(len(jobs)) {
			t.Fatalf("non-resume sweep #%d executed %d simulations, want %d", sweep, n, len(jobs))
		}
		after, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("non-resume sweep #%d changed wal.log: %d -> %d bytes", sweep, len(before), len(after))
		}
	}
}

// walFrameEnds parses a WAL image and returns the byte offset after the
// header and after each framed record — every legal truncation point.
func walFrameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	const headerLen, frameHdrLen = 16, 8
	ends := []int{headerLen}
	off := headerLen
	for off < len(wal) {
		if len(wal)-off < frameHdrLen {
			t.Fatalf("torn reference WAL at offset %d", off)
		}
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		off += frameHdrLen + n
		if off > len(wal) {
			t.Fatalf("reference WAL frame overruns the file")
		}
		ends = append(ends, off)
	}
	return ends
}

// TestKillAndResumeSweep is the resumability proof: a robustness sweep killed
// after any number of completed records — and once mid-record — resumes into
// a byte-identical final table, re-running exactly the dropped records.
func TestKillAndResumeSweep(t *testing.T) {
	opts := RobustnessOptions{
		Schemes:  []string{"bbr", "cubic"},
		Cases:    RobustnessCases()[:2], // clean + burst-loss
		Rate:     20e6,
		Flows:    2,
		Lifetime: 3 * time.Second,
		Seed:     7,
	}
	refDir := t.TempDir()
	attachTestStore(t, refDir, true)
	want, err := RobustnessTable(opts)
	if err != nil {
		t.Fatalf("reference RobustnessTable: %v", err)
	}
	total := len(opts.Schemes) * len(opts.Cases)
	if Store.Len() != total {
		t.Fatalf("reference sweep stored %d records, want %d", Store.Len(), total)
	}
	if err := Store.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(refDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	ends := walFrameEnds(t, wal)
	if len(ends) != total+1 {
		t.Fatalf("reference WAL has %d records, want %d", len(ends)-1, total)
	}

	// cutAt truncates the WAL image at a byte offset ("kill -9 here") and
	// re-runs the sweep against the surviving prefix.
	cutAt := func(cut, wantLive int, wantDirty bool) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := attachTestStore(t, dir, true)
		if st.Repair().Dirty() != wantDirty {
			t.Fatalf("cut at %d: repair dirty = %v, want %v", cut, st.Repair().Dirty(), wantDirty)
		}
		liveRuns.Store(0)
		got, err := RobustnessTable(opts)
		if err != nil {
			t.Fatalf("cut at %d: resumed RobustnessTable: %v", cut, err)
		}
		if n := liveRuns.Load(); n != int64(wantLive) {
			t.Fatalf("cut at %d: resumed sweep re-ran %d records, want exactly the %d dropped", cut, n, wantLive)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: resumed table differs from the uninterrupted run:\n got %+v\nwant %+v", cut, got, want)
		}
		if st.Len() != total {
			t.Fatalf("cut at %d: store holds %d records after resume, want %d", cut, st.Len(), total)
		}
	}

	for k, end := range ends {
		cutAt(end, total-k, false)
	}
	// One mid-record kill: the torn half-frame must be repaired away and
	// only the torn record re-run.
	cutAt((ends[1]+ends[2])/2, total-1, true)
}

// TestRetryPathLeavesStoreIntact is the regression test for the half-written
// record hazard: garbage past the store's good offset (a crashed Put, a
// foreign append) plus a sweep whose panicking run is retried must still
// produce a store holding exactly the completed records, each intact.
func TestRetryPathLeavesStoreIntact(t *testing.T) {
	dir := t.TempDir()
	attachTestStore(t, dir, true)
	first, err := Run(storeJobs()[2])
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append landing after the good record.
	if f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		t.Fatal(err)
	} else {
		if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// A sweep mixing a transient panic (retried, uncacheable) with a
	// cacheable run whose Put must land after the torn bytes are healed.
	var calls atomic.Int64
	jobs := []Scenario{
		tinyScenario("flaky-store", func(uint64) cc.Algorithm {
			if calls.Add(1) == 1 {
				panic("transient")
			}
			return cubic.New()
		}),
		storeJobs()[0],
	}
	results, err := RunMany(jobs)
	if err != nil {
		t.Fatalf("RunMany with retry: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("panic seam called %d times, want 2 (initial + retry)", calls.Load())
	}
	if results[0].Cached || results[1].Cached {
		t.Fatal("live runs wrongly marked cached")
	}
	if err := Store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Repair().Dirty() {
		t.Fatalf("torn bytes survived to reopen: %+v", re.Repair())
	}
	recs := re.Records()
	if len(recs) != 2 {
		t.Fatalf("store holds %d records, want exactly the 2 completed cacheable runs", len(recs))
	}
	if recs[0].Digest != first.Digest || recs[0].Scenario != "store-vegas-solo" {
		t.Fatalf("first record corrupted: %+v", recs[0])
	}
	if recs[1].Scenario != "store-cubic-pair" || recs[1].Digest != results[1].Digest {
		t.Fatalf("second record corrupted: %+v", recs[1])
	}
}

// TestRunStoreRefusesPut: a store that refuses the append fails the run with
// an error that wraps the store's sentinel and names the scenario.
func TestRunStoreRefusesPut(t *testing.T) {
	s := storeJobs()[2]
	for _, tc := range []struct {
		name string
		open func(dir string) (*runstore.Store, error)
		want error
	}{
		{"read-only", func(dir string) (*runstore.Store, error) {
			return runstore.Open(runstore.Options{Dir: dir, ReadOnly: true})
		}, runstore.ErrReadOnly},
		{"closed", func(dir string) (*runstore.Store, error) {
			st, err := runstore.Open(runstore.Options{Dir: dir, Fsync: runstore.FsyncNever})
			if err == nil {
				err = st.Close()
			}
			return st, err
		}, runstore.ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := tc.open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			prevStore, prevResume := Store, StoreResume
			Store, StoreResume = st, true
			defer func() { Store, StoreResume = prevStore, prevResume }()
			res, err := Run(s)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("scenario %q", s.Name)) {
				t.Fatalf("Run against a %s store: result %v, err %v; want an error wrapping %v naming %q",
					tc.name, res, err, tc.want, s.Name)
			}
		})
	}
}

// keyStabilityScenarios are the canonical pinned-key scenarios. They pin
// every key input: link knobs, traces, faults, flow specs, seeds.
func keyStabilityScenarios() []Scenario {
	basic := Scenario{
		Name: "canon-basic", Rate: 50e6, OneWayDelay: 10 * time.Millisecond,
		BufferBytes: 100_000, PacketSize: 1500, Horizon: 10 * time.Second,
		Seed: 42,
		Flows: []FlowSpec{
			{Scheme: "cubic"},
			{Scheme: "bbr", Start: 2 * time.Second, Duration: 6 * time.Second, ExtraOneWay: 5 * time.Millisecond},
		},
	}
	withFaults := basic
	withFaults.Name = "canon-faults"
	withFaults.Faults = &faults.Config{
		GE:          &faults.GEConfig{PGoodBad: 0.002, PBadGood: 0.25, LossGood: 0, LossBad: 1},
		ReorderProb: 0.01, ReorderMaxDelay: 10 * time.Millisecond,
		DupProb:    0.005,
		JitterProb: 0.02, JitterMax: 5 * time.Millisecond,
		Flap: &faults.FlapConfig{MeanUp: 15 * time.Second, MeanDown: 150 * time.Millisecond},
	}
	constTrace := basic
	constTrace.Name = "canon-const-trace"
	constTrace.Trace = traces.Constant(30e6)
	stepTrace := basic
	stepTrace.Name = "canon-step-trace"
	stepTrace.Trace = &traces.Step{
		Points: []traces.Point{{At: 0, Rate: 40e6}, {At: 5 * time.Second, Rate: 20e6}},
		Loop:   10 * time.Second,
	}
	return []Scenario{basic, withFaults, constTrace, stepTrace}
}

// TestScenarioKeyStability pins the content hash of canonical scenarios. A
// failure here means the key schema changed: every stored record becomes
// unreachable under the new keys. If the change is intentional, bump
// KeySchemaVersion (see its doc comment for the procedure) and repin with
// JURY_PRINT_KEYS=1 go test -run TestScenarioKeyStability -v ./internal/exp.
func TestScenarioKeyStability(t *testing.T) {
	want := map[string]string{
		"canon-basic": "ae163095ac347b2e1898a556cd8da250b5f121fcdc12a7d823943dded662f7c8",
		// This scenario used to set Shards = 2, an input that no longer
		// exists; it is keyed as every scenario is, at Shards = 1.
		"canon-faults":      "43899d9811cd8ce76f47c013143d1a4b2dae7d16ae94eb588201d4aa249b8fbe",
		"canon-const-trace": "b40178920286bae94b6945642d780b9027e30511d43edd7a6c5ce0594cdc70ff",
		"canon-step-trace":  "7fb61f67dd479f7dfa0f6f107db2e1bab0390fdb0c997ca30d0d9752cf35ac1c",
	}
	for _, s := range keyStabilityScenarios() {
		key, ok := ScenarioKey(s)
		if !ok {
			t.Fatalf("canonical scenario %q not cacheable", s.Name)
		}
		if os.Getenv("JURY_PRINT_KEYS") != "" {
			t.Logf("%q: %q,", s.Name, key.String())
			continue
		}
		if key.String() != want[s.Name] {
			t.Errorf("scenario %q key = %s, want %s\n(key schema changed: bump KeySchemaVersion and repin — see its doc comment)",
				s.Name, key.String(), want[s.Name])
		}
	}

	// Inputs that must (and must not) move the key.
	base := keyStabilityScenarios()[0]
	baseKey, _ := ScenarioKey(base)
	renamed := base
	renamed.Name = "renamed"
	if k, _ := ScenarioKey(renamed); k != baseKey {
		t.Error("scenario Name leaked into the key (it labels, it does not simulate)")
	}
	for _, mut := range []struct {
		name string
		mod  func(*Scenario)
	}{
		{"Rate", func(s *Scenario) { s.Rate = 60e6 }},
		{"OneWayDelay", func(s *Scenario) { s.OneWayDelay = 20 * time.Millisecond }},
		{"BufferBytes", func(s *Scenario) { s.BufferBytes = 50_000 }},
		{"LossRate", func(s *Scenario) { s.LossRate = 0.001 }},
		{"Seed", func(s *Scenario) { s.Seed = 43 }},
		{"Horizon", func(s *Scenario) { s.Horizon = 11 * time.Second }},
		{"scheme", func(s *Scenario) { s.Flows[0].Scheme = "vegas" }},
		{"flow start", func(s *Scenario) { s.Flows[1].Start = 3 * time.Second }},
		{"trace", func(s *Scenario) { s.Trace = traces.Constant(50e6) }},
		{"faults", func(s *Scenario) { s.Faults = &faults.Config{DupProb: 0.01} }},
	} {
		s := base
		s.Flows = append([]FlowSpec(nil), base.Flows...)
		mut.mod(&s)
		if k, _ := ScenarioKey(s); k == baseKey {
			t.Errorf("changing %s did not change the key", mut.name)
		}
	}
	custom := base
	custom.Flows = append([]FlowSpec(nil), base.Flows...)
	custom.Flows[0].CC = func(uint64) cc.Algorithm { return cubic.New() }
	if _, ok := ScenarioKey(custom); ok {
		t.Error("FlowSpec.CC override must be uncacheable (function identity has no fingerprint)")
	}
}
