package exp

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/simcheck"
	"repro/internal/telemetry"
)

// job describes one simulation to the run pipeline: the topology builder
// that makes its network, the shaper that turns the finished network into
// the caller's result type R, and — for runs the store can hold — the
// content key and the record conversions. See DESIGN.md "Run pipeline".
type job[R any] struct {
	name    string // labels errors, spans and trace events
	seed    uint64
	horizon time.Duration
	// shards caps RunSharded. Only the huge mesh passes more than 1: a
	// dumbbell partitions into one shard whatever the cap, and the
	// multi-bottleneck run must stay sequential (see RunMultiBottleneck).
	shards int
	check  bool // attach the invariant checker (ForceCheck forces it on)

	build func() (*netsim.Network, error)
	shape func(*netsim.Network, outcome) R

	// key, record and restore are nil for runs the store does not hold; key
	// reports ok = false for an input it cannot fingerprint.
	key     func() (key runstore.Key, ok bool)
	record  func(runstore.Key, R) *runstore.Record
	restore func(*runstore.Record) R
}

// outcome is what the pipeline measured on a finished run, for the shaper.
type outcome struct {
	run     *netsim.ShardRun
	digest  uint64 // zero unless checked
	checked bool
	stream  *obs.StreamSummary // nil unless Obs is set
}

// execute is the one place a built network becomes a finished run. Around the
// simulation it consults the run store (resume lookup before, put after); on
// the network it attaches the invariant checker, then telemetry, then the
// streaming observer — the checker replaces the tap slot and the other two
// chain behind it, and only the observer claims the window hook — runs it
// through RunSharded (sequential at one shard), and finishes observer and
// checker. An invariant violation is the run's error.
func execute[R any](j job[R]) (res R, err error) {
	st := Store
	var key runstore.Key
	storable := false
	if st != nil && j.key != nil {
		key, storable = j.key()
		if storable && StoreResume {
			if rec, ok := st.Get(key); ok {
				storeCounter("runstore_hits_total", "sweep runs served from the run store").Inc()
				return j.restore(rec), nil
			}
			storeCounter("runstore_misses_total", "sweep runs not found in the run store").Inc()
		}
	}
	liveRuns.Add(1)
	n, err := j.build()
	if err != nil {
		return res, err
	}
	var ck *simcheck.Checker
	if j.check || ForceCheck {
		ck = simcheck.Attach(n)
	}
	hub := Telemetry
	var span telemetry.Span
	var started time.Time
	if hub.Enabled() {
		telemetry.AttachSim(n, hub)
		hub.Registry.Counter("exp_runs_started_total", "scenario runs started").Inc()
		span = hub.StartSpan("run:"+j.name, 0)
		hub.Event("exp", "run_start", 0,
			telemetry.Str("scenario", j.name),
			telemetry.I64("flows", int64(len(n.Flows()))),
			telemetry.I64("seed", int64(j.seed)))
		started = time.Now()
	}
	fail := func(err error, outcome string) (R, error) {
		if hub.Enabled() {
			hub.Registry.Counter("exp_runs_failed_total", "scenario runs that returned an error").Inc()
			span.End(j.horizon, telemetry.Str("outcome", outcome))
		}
		var none R
		return none, fmt.Errorf("exp: scenario %q: %w", j.name, err)
	}
	var ob *obs.Observer
	if Obs != nil {
		// The violation hook and the panic dump are wired here so obs never
		// imports simcheck or the harness.
		ob = Obs.Attach(n, j.shards)
		if ck != nil {
			ck.SetViolationHook(func(v simcheck.Violation) { ob.NoteViolation(v.Time, v.Rule) })
		}
		defer func() {
			if r := recover(); r != nil {
				ob.DumpFlight("panic")
				panic(r)
			}
		}()
	}
	run, err := n.RunSharded(j.horizon, j.shards)
	if err != nil {
		return fail(err, "error")
	}
	telemetry.RecordShards(hub, run.Executed)
	telemetry.RecordCoordinator(hub, run.BarrierRounds, run.FusedWindows)
	out := outcome{run: run, stream: ob.Finish(j.horizon)}
	if ck != nil {
		ck.Finish()
		if err := ck.Err(); err != nil {
			return fail(err, "invariant_violation")
		}
		out.digest, out.checked = ck.Digest(), true
	}
	res = j.shape(n, out)
	if storable {
		if err := st.Put(j.record(key, res)); err != nil {
			return fail(err, "store_error")
		}
		storeCounter("runstore_appends_total", "run records appended to the run store").Inc()
	}
	if hub.Enabled() {
		hub.Registry.Histogram("exp_run_seconds", "wall time of one scenario run", telemetry.ExpBuckets(1e-3, 2, 18)).
			Observe(time.Since(started).Seconds())
		hub.Registry.Counter("exp_runs_finished_total", "scenario runs finished successfully").Inc()
		span.End(j.horizon, telemetry.Str("outcome", "ok"))
		var snapshots int64
		if out.stream != nil {
			snapshots = out.stream.Snapshots
		}
		hub.Event("exp", "run_finish", j.horizon,
			telemetry.Str("scenario", j.name),
			telemetry.Str("digest", fmt.Sprintf("%016x", out.digest)),
			telemetry.I64("obs_snapshots", snapshots))
	}
	return res, nil
}
