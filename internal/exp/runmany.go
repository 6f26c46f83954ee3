package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// parallelFor runs fn(i) for every i in [0, n) across up to GOMAXPROCS
// worker goroutines and returns the error of the lowest failing index (the
// same error a sequential loop would surface first). Workers pull indices
// from a shared atomic counter, so uneven per-item cost does not idle them.
// fn must be safe to call concurrently from multiple goroutines.
func parallelFor(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// PanicError is the error a panicking scenario run is converted into: one
// poisoned run must fail as a per-run error with its stack, not kill the
// whole figure sweep's process.
type PanicError struct {
	Scenario string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exp: scenario %q panicked: %v\n%s", e.Scenario, e.Value, e.Stack)
}

// runSafe executes Run under a panic guard.
func runSafe(s Scenario) (r *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = nil
			err = &PanicError{Scenario: s.Name, Value: p, Stack: debug.Stack()}
		}
	}()
	return Run(s)
}

// RunMany executes scenarios concurrently on a GOMAXPROCS-sized worker pool
// and returns results in input order. Every scenario builds its own network,
// event engine, and RNG (seeded from Scenario.Seed), so each result is
// bit-identical to what a sequential Run(jobs[i]) would produce; only
// wall-clock time changes. A worker that panics surfaces a *PanicError for
// that scenario (after one retry, in case the panic was transient) instead
// of crashing the process. On error, the first failure in input order is
// returned and the results are discarded.
func RunMany(jobs []Scenario) ([]*RunResult, error) {
	results := make([]*RunResult, len(jobs))
	hub := Telemetry
	var completed atomic.Int64
	var sweepStart time.Time
	if hub.Enabled() {
		sweepStart = time.Now()
		hub.Event("exp", "sweep_start", 0, telemetry.I64("total", int64(len(jobs))))
	}
	err := parallelFor(len(jobs), func(i int) error {
		r, err := runSafe(jobs[i])
		if _, panicked := err.(*PanicError); panicked {
			if hub.Enabled() {
				hub.Registry.Counter("exp_panic_retries_total", "").Inc()
				hub.Event("exp", "panic_retry", 0, telemetry.Str("scenario", jobs[i].Name))
			}
			r, err = runSafe(jobs[i])
		}
		results[i] = r
		if hub.Enabled() {
			done := completed.Add(1)
			elapsed := time.Since(sweepStart)
			// Linear extrapolation from the mean per-run wall time; coarse
			// but monotone, and only emitted on the instrumented path.
			eta := time.Duration(float64(elapsed) / float64(done) * float64(int64(len(jobs))-done))
			hub.Event("exp", "progress", 0,
				telemetry.I64("completed", done),
				telemetry.I64("total", int64(len(jobs))),
				telemetry.Dur("elapsed_ns", elapsed),
				telemetry.Dur("eta_ns", eta))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
