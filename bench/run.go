package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ctx is what one pass of one workload runs with.
type ctx struct {
	seed   uint64
	smoke  bool          // ~1/50 size; the paper-claim checks are off
	budget time.Duration // untraced reps continue while another fits in this
	reps   int           // > 0: exactly this many untraced reps
	self   string        // this binary, for the process-start probe; "" skips it
}

// minReps is the floor of timed reps per workload, whatever the budget.
const minReps = 3

// rep is the outcome of one repetition of a workload: a set-up phase (fresh
// state, not timed as work) followed by the timed operation.
type rep struct {
	setup, wall time.Duration
	fp          fingerprint
	ops         int64              // operations attempted (scenario runs, epochs, decisions)
	vals        map[string]float64 // workload metrics this rep measured, by name
	lat         []float64          // serve_socket: per-decision round trips, us
	failures
}

// failures counts operations that failed or produced a wrong output, and
// keeps the explanation of the first few.
type failures struct {
	failed int64
	notes  []string
}

// maxNotes caps the explanations kept; the count itself is exact.
const maxNotes = 16

// failN counts n failed operations under one explanation.
func (f *failures) failN(n int64, format string, args ...any) {
	f.failed += n
	if len(f.notes) < maxNotes {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

func (f *failures) failf(format string, args ...any) { f.failN(1, format, args...) }

// layerOut collects what a workload's layer probes measured and the wrong
// outputs they found.
type layerOut struct {
	metrics map[string]sample
	failures
}

func (o *layerOut) set(name string, v float64) { o.metrics[name] = one(v) }

// workload is one named load. rep runs one repetition, traced when tr is
// non-nil; an error means the harness itself could not run (as opposed to
// the program under test producing a wrong output, which is a failed op).
// probes runs the workload's direct layer probes for the traced pass.
type workload struct {
	name   string
	why    string // the one-line rationale recorded in BENCHMARK.json
	rep    func(c *ctx, tr *tracer) (*rep, error)
	probes func(c *ctx, tr *tracer, base, traced *rep, out *layerOut) error
}

// Workload names are permanent: later changes are compared against results
// recorded under them.
const (
	wlPaperFigs   = "paper_figs"
	wlMesh100k    = "mesh_100k"
	wlServeSocket = "serve_socket"
	wlTrainEpoch  = "train_epoch"
)

var workloads = []workload{
	{wlPaperFigs, "juryexp fig7+tab3+ablation+fig8 at default scale: few flows, shallow event queue, every CC scheme and Jury's OnInterval/policy; bypasses sharding, obs, nn, agentrpc, rl", figsRep, figsProbes},
	{wlMesh100k, "RunHuge 100k cubic flows, 2 shards, obs on: working set far beyond cache, deep timer wheel, flyweight flows, coordinator barrier, obs taps; cc/core cost near 0", meshRep, meshProbes},
	{wlServeSocket, "juryserve defaults over loopback TCP, nproc closed-loop clients on a 16-128-128-2 actor: wire framing, batcher queue + BatchDelay, DecideBatch/nn forward; no simulator", serveRep, serveProbes},
	{wlTrainEpoch, "TrainPolicy 8 epochs at jurytrain defaults (8 actors x 512 steps, 128 updates): rl + nn backward/GEMM at batch 64 + TrainingEnv over netsim", trainRep, trainProbes},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one pass of one workload produced.
type result struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Reps        int               `json:"reps"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Metrics     map[string]sample `json:"metrics"`
}

// runUntraced measures the end-to-end metrics: at least minReps reps, more
// while they fit in the budget, medians over reps.
func runUntraced(w workload, c *ctx) (*result, error) {
	procStart, err := processStart(c)
	if err != nil {
		return nil, err
	}
	var reps []*rep
	began := time.Now()
	for {
		t0 := time.Now()
		r, err := w.rep(c, nil)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", w.name, len(reps), err)
		}
		reps = append(reps, r)
		// Stop at the asked-for count, or when another rep as long as the
		// last would not fit in the budget.
		done := len(reps) >= c.reps
		if c.reps == 0 {
			done = len(reps) >= minReps && time.Since(began)+time.Since(t0) > c.budget
		}
		if done {
			break
		}
	}
	return summarize(w.name, c, reps, procStart), nil
}

// summarize folds reps into a result: medians of the timings and of every
// per-rep value, pooled latency percentiles, and the output checks that
// span reps (they must agree on the fingerprint).
func summarize(name string, c *ctx, reps []*rep, procStart float64) *result {
	res := &result{Workload: name, Seed: c.seed, Reps: len(reps), Metrics: map[string]sample{}}
	var walls, setups, lat []float64
	vals := map[string][]float64{}
	for i, r := range reps {
		res.Attempted += r.ops
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.notes...)
		if r.fp != reps[0].fp {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("rep %d fingerprint %s differs from rep 0 %s", i, r.fp, reps[0].fp))
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
		lat = append(lat, r.lat...)
		for k, v := range r.vals {
			vals[k] = append(vals[k], v)
		}
	}
	res.Fingerprint = reps[0].fp.String()
	put := func(name string, s sample) {
		if d, ok := lookupDef(name); ok {
			s.Unit = d.Unit
		}
		res.Metrics[name] = s
	}
	put("wall_s", medianOf(walls))
	s := medianOf(setups)
	s.Value, s.Min, s.Max = s.Value+procStart, s.Min+procStart, s.Max+procStart
	put("setup_s", s)
	for k, vs := range vals {
		put(k, medianOf(vs))
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		for _, p := range []struct {
			name string
			pct  float64
		}{{"decision_p50_us", 50}, {"decision_p99_us", 99}, {"decision_p999_us", 99.9}} {
			put(p.name, sample{Value: percentile(lat, p.pct), Min: lat[0], Max: lat[len(lat)-1], N: len(lat)})
		}
	}
	put("fail_ratio", one(float64(res.Failed)/float64(res.Attempted)))
	return res
}

// runTraced measures the per-layer metrics: one untraced rep as the
// baseline, one traced rep, then the workload's direct layer probes. The
// workload's own end-to-end figures in the result come from the untraced
// rep only.
func runTraced(w workload, c *ctx) (*result, *tracer, error) {
	base, err := w.rep(c, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s baseline rep: %w", w.name, err)
	}
	tr := newTracer()
	tr.nextRep()
	traced, err := w.rep(c, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s traced rep: %w", w.name, err)
	}
	res := summarize(w.name, c, []*rep{base}, 0)
	res.Traced = true
	if traced.fp != base.fp {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("traced rep fingerprint %s differs from untraced %s", traced.fp, base.fp))
	}
	res.Attempted += traced.ops
	res.Failed += traced.failed
	res.Failures = append(res.Failures, traced.notes...)
	out := &layerOut{metrics: map[string]sample{}}
	for k, v := range traced.vals {
		if _, ok := res.Metrics[k]; !ok {
			out.set(k, v)
		}
	}
	out.set("trace_overhead_ratio", traced.wall.Seconds()/base.wall.Seconds())
	tr.nextRep()
	if err := w.probes(c, tr, base, traced, out); err != nil {
		return nil, nil, fmt.Errorf("%s probes: %w", w.name, err)
	}
	res.Failed += out.failed
	res.Failures = append(res.Failures, out.notes...)
	for k, s := range out.metrics {
		if d, ok := lookupDef(k); ok {
			s.Unit = d.Unit
		}
		res.Metrics[k] = s
	}
	res.Metrics["fail_ratio"] = sample{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", N: 1}
	return res, tr, nil
}

// processStart is what every fresh process pays before main runs its first
// line: exec, runtime start and package initialisation of everything the
// binary links. It is the median wall time of a few no-op children of this
// same binary, and is part of every workload's setup_s.
func processStart(c *ctx) (float64, error) {
	if c.self == "" {
		return 0, nil
	}
	n := 9
	if c.smoke {
		n = 3
	}
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := exec.Command(c.self, "-noop").Run(); err != nil {
			return 0, fmt.Errorf("process-start probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// cpuSeconds reports the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM); 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeap forces a collection and reports the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
