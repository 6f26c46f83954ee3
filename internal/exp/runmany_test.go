package exp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/netsim"
)

// fingerprint serializes everything a figure runner could read from a
// result, so two results compare byte-identical or not at all.
func fingerprint(r *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "util=%v\n", r.Utilization)
	for _, f := range r.Flows {
		fmt.Fprintf(&b, "%s stats=%+v\n", f.Name(), f.Stats())
		for _, p := range f.Series() {
			fmt.Fprintf(&b, "%+v\n", p)
		}
	}
	return b.String()
}

func runManyJobs() []Scenario {
	return []Scenario{
		{
			Name: "two-jury", Rate: 30e6, OneWayDelay: 10 * time.Millisecond,
			BufferBytes: 75_000, Horizon: 6 * time.Second, Seed: 1,
			Flows: []FlowSpec{{Scheme: "jury"}, {Scheme: "jury", Start: 2 * time.Second}},
		},
		{
			Name: "lossy-mixed", Rate: 20e6, OneWayDelay: 15 * time.Millisecond,
			BufferBytes: 75_000, LossRate: 0.005, Horizon: 5 * time.Second, Seed: 2,
			Flows: []FlowSpec{{Scheme: "cubic"}, {Scheme: "jury", ExtraOneWay: 20 * time.Millisecond}},
		},
		{
			Name: "bbr-solo", Rate: 40e6, OneWayDelay: 5 * time.Millisecond,
			BufferBytes: 50_000, Horizon: 4 * time.Second, Seed: 3,
			Flows: []FlowSpec{{Scheme: "bbr"}},
		},
	}
}

func TestRunManyMatchesSequential(t *testing.T) {
	jobs := runManyJobs()
	want := make([]string, len(jobs))
	for i, s := range jobs {
		r, err := Run(s)
		if err != nil {
			t.Fatalf("sequential Run(%q): %v", s.Name, err)
		}
		want[i] = fingerprint(r)
	}
	got, err := RunMany(jobs)
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("RunMany returned %d results for %d jobs", len(got), len(jobs))
	}
	for i, r := range got {
		if fp := fingerprint(r); fp != want[i] {
			t.Errorf("job %d (%q): RunMany result differs from sequential Run", i, jobs[i].Name)
		}
	}
}

func TestRunManyFirstErrorByIndex(t *testing.T) {
	jobs := runManyJobs()
	jobs[1].Flows[0].Scheme = "no-such-scheme-b"
	jobs[2].Flows[0].Scheme = "no-such-scheme-c"
	_, seqErr := Run(jobs[1])
	if seqErr == nil {
		t.Fatal("sequential Run accepted an unknown scheme")
	}
	results, err := RunMany(jobs)
	if results != nil {
		t.Fatal("RunMany returned results alongside an error")
	}
	if err == nil || err.Error() != seqErr.Error() {
		t.Fatalf("RunMany error %v, want the first sequential error %v", err, seqErr)
	}
}

func TestRunManyEmpty(t *testing.T) {
	results, err := RunMany(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("RunMany(nil) = %v, %v; want empty, nil", results, err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int64
	if err := parallelFor(n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	sentinel := errors.New("boom")
	err := parallelFor(n, func(i int) error {
		if i > 39 {
			return fmt.Errorf("fail %d", i)
		}
		if i == 39 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("parallelFor error %v, want the lowest-index failure %v", err, sentinel)
	}
}

// maxScenarioAllocs bounds the allocations of one checked Run of
// TestScenarioAllocCeiling's scenario: 1.10 × the 1,366 it took when the
// ceiling was set.
const maxScenarioAllocs = 1502

// TestScenarioAllocCeiling pins what a full scenario simulation — the unit
// of work RunMany distributes — allocates. The count is set-up (network,
// controllers, checker) plus time series that grow with the horizon; the
// per-packet path (event scheduling, packets, NN inference) stays off the
// heap, where one allocation per packet would add some 10,000.
func TestScenarioAllocCeiling(t *testing.T) {
	s := Scenario{
		Name: "alloc-ceiling", Rate: 30e6, OneWayDelay: 10 * time.Millisecond,
		BufferBytes: 75_000, Horizon: 5 * time.Second, Seed: 7,
		Flows: []FlowSpec{{Scheme: "jury"}, {Scheme: "jury", Start: time.Second}},
	}
	var err error
	avg := testing.AllocsPerRun(3, func() {
		if _, e := Run(s); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg > maxScenarioAllocs {
		t.Fatalf("one Run allocates %v times, want at most %d", avg, maxScenarioAllocs)
	}
	t.Logf("%v allocations per Run", avg)
}

var _ = []*netsim.Flow(nil) // keep the import tied to the fingerprint helper

// tinyScenario builds the smallest useful run with a custom controller
// factory, for the panic-recovery tests below.
func tinyScenario(name string, mk func(seed uint64) cc.Algorithm) Scenario {
	return Scenario{
		Name: name, Rate: 10e6, OneWayDelay: 5 * time.Millisecond,
		BufferBytes: 25_000, Horizon: 2 * time.Second, Seed: 9,
		Flows: []FlowSpec{{Scheme: "custom", CC: mk}},
	}
}

// TestRunManyConvertsPanicToError: one poisoned scenario must surface a
// *PanicError naming the scenario and carrying the stack, not crash the
// whole sweep's process.
func TestRunManyConvertsPanicToError(t *testing.T) {
	jobs := []Scenario{
		tinyScenario("healthy", func(uint64) cc.Algorithm { return cubic.New() }),
		tinyScenario("poisoned", func(uint64) cc.Algorithm {
			panic("poisoned controller")
		}),
	}
	_, err := RunMany(jobs)
	if err == nil {
		t.Fatal("RunMany swallowed a panicking scenario")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError: %v", err, err)
	}
	if pe.Scenario != "poisoned" {
		t.Fatalf("PanicError names scenario %q, want %q", pe.Scenario, "poisoned")
	}
	msg := err.Error()
	if !strings.Contains(msg, "poisoned controller") {
		t.Errorf("error text lost the panic value: %q", msg)
	}
	if !strings.Contains(msg, "goroutine") {
		t.Errorf("error text lost the stack trace: %q", msg)
	}
}

// TestRunManyRetriesTransientPanic: a panic that does not recur must be
// absorbed by the single retry.
func TestRunManyRetriesTransientPanic(t *testing.T) {
	var calls atomic.Int64
	jobs := []Scenario{tinyScenario("flaky", func(uint64) cc.Algorithm {
		if calls.Add(1) == 1 {
			panic("transient")
		}
		return cubic.New()
	})}
	results, err := RunMany(jobs)
	if err != nil {
		t.Fatalf("RunMany did not retry a transient panic: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("controller factory called %d times, want 2 (initial + retry)", n)
	}
	if results[0] == nil || len(results[0].Flows) != 1 {
		t.Fatal("retry produced no usable result")
	}
}

// TestFlowSpecCCOverride: a custom factory replaces the scheme lookup and
// the flow still moves traffic.
func TestFlowSpecCCOverride(t *testing.T) {
	var calls atomic.Int64
	s := tinyScenario("override", func(uint64) cc.Algorithm {
		calls.Add(1)
		return cubic.New()
	})
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("factory called %d times, want 1", n)
	}
	if r.Flows[0].Stats().AckedBytes == 0 {
		t.Fatal("overridden flow moved no traffic")
	}
}
