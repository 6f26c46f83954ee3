// Package exp is the experiment harness: it maps every table and figure of
// the paper's evaluation (§5) to a runnable experiment over the emulator,
// with typed result rows. Each experiment accepts an options struct whose
// zero value reproduces a scaled-down but shape-faithful version of the
// paper's setup, the scale `jury exp` runs; the Figures registry writes out
// the fields `-full` raises to the paper's scale (see DESIGN.md "Figures").
package exp

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/astraea"
	"repro/internal/cc/aurora"
	"repro/internal/cc/bbr"
	"repro/internal/cc/copa"
	"repro/internal/cc/cubic"
	"repro/internal/cc/orca"
	"repro/internal/cc/remy"
	"repro/internal/cc/reno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/vivace"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/traces"
)

// Telemetry, when set to a live hub by a binary's -telemetry/-trace-out/
// -debug-addr flags, instruments every run of the pipeline: run lifecycle
// counters and spans, live Jury decision-guard gauges, and each finished
// run's sim totals (see foldSimTotals). A nil hub (the default) keeps the
// harness on its uninstrumented fast path — the pipeline does one nil check
// and nothing else.
var Telemetry *telemetry.Hub

// ForceCheck attaches a simcheck invariant checker to every run of the
// pipeline, regardless of Scenario.Check or HugeOptions.Check. It is
// initialized from the JURY_SIMCHECK environment variable so production
// figure runs can be audited without code changes (see EXPERIMENTS.md), and
// the experiment package's own tests turn it on in TestMain so the whole
// short suite runs under the invariant checker.
var ForceCheck = os.Getenv("JURY_SIMCHECK") != ""

// Schemes lists every congestion-control scheme the harness can run.
var Schemes = []string{
	"jury", "astraea", "orca", "aurora", "vivace",
	"bbr", "cubic", "vegas", "reno", "copa", "remy",
}

// baselineSchemes is the eight-scheme comparison set of Fig. 6, Fig. 10,
// Fig. 11(a) and Fig. 13.
var baselineSchemes = []string{"jury", "astraea", "orca", "aurora", "vivace", "bbr", "cubic", "vegas"}

// NewScheme constructs a controller by name. Each flow gets its own seed so
// stochastic components (exploration, probing order) are independent.
func NewScheme(name string, seed uint64) (cc.Algorithm, error) {
	switch name {
	case "jury":
		return core.NewDefault(seed), nil
	case "astraea":
		return astraea.New(nil), nil
	case "orca":
		return orca.New(nil), nil
	case "aurora":
		return aurora.New(nil), nil
	case "vivace":
		return vivace.New(seed), nil
	case "bbr":
		return bbr.New(), nil
	case "cubic":
		return cubic.New(), nil
	case "vegas":
		return vegas.New(), nil
	case "reno":
		return reno.New(), nil
	case "copa":
		return copa.New(), nil
	case "remy":
		return remy.New(nil), nil
	default:
		return nil, fmt.Errorf("exp: unknown scheme %q", name)
	}
}

// FlowSpec describes one flow of a scenario.
type FlowSpec struct {
	Scheme      string
	Start       time.Duration
	Duration    time.Duration // 0 = until horizon
	ExtraOneWay time.Duration
	// CC, if non-nil, overrides Scheme with a custom controller factory
	// (Scheme then only labels the flow). Tests use it to inject adversarial
	// controllers into scenarios.
	CC func(seed uint64) cc.Algorithm
}

// Scenario is a single-bottleneck dumbbell setup.
type Scenario struct {
	Name        string
	Rate        float64      // bits/second (ignored if Trace set)
	Trace       traces.Trace // optional time-varying capacity
	OneWayDelay time.Duration
	BufferBytes int
	LossRate    float64
	PacketSize  int // 0 = default MSS; raise for ≥1 Gbps runs
	// Faults attaches deterministic fault processes (burst loss, reordering,
	// duplication, jitter spikes, blackouts) to the bottleneck link. See
	// internal/faults and the robustness experiments.
	Faults  *faults.Config
	Flows   []FlowSpec
	Horizon time.Duration
	Seed    uint64
	// Check attaches a simcheck invariant checker to the run; Run fails if
	// any invariant is violated. Overridden to true globally by ForceCheck.
	Check bool
}

// BufferBDP returns the byte size of n bandwidth-delay products for the
// scenario's rate and round-trip time.
func (s Scenario) BufferBDP(n float64) int {
	return int(n * s.Rate / 8 * (2 * s.OneWayDelay).Seconds())
}

// FlowSummary is the serializable read-only view of one flow of a run:
// everything the figure and table consumers read, detached from the live
// simulator objects so a result loaded from the run store (internal/
// runstore) is indistinguishable from a fresh one — it is the stored form,
// behind read-only accessors. It satisfies metrics.FlowSeries.
type FlowSummary struct{ rec runstore.FlowRecord }

// Name returns the flow's label.
func (f *FlowSummary) Name() string { return f.rec.Stats.Name }

// BaseRTT returns the flow's propagation round-trip floor.
func (f *FlowSummary) BaseRTT() time.Duration { return f.rec.BaseRTT }

// Stats returns the flow's lifetime counters.
func (f *FlowSummary) Stats() netsim.FlowStats { return f.rec.Stats }

// Series returns the recorded per-interval samples.
func (f *FlowSummary) Series() []netsim.SeriesPoint { return f.rec.Series }

// JuryCounters returns the Jury decision-guard counters (degraded
// AIMD-fallback decisions, non-finite actions that reached Eq. 7); both are
// zero for non-Jury schemes.
func (f *FlowSummary) JuryCounters() (degraded, nonFinite int64) {
	return f.rec.Degraded, f.rec.NonFinite
}

// LinkSummary carries the bottleneck-link counters a stored run preserves.
type LinkSummary struct {
	FaultDrops int64
	Reordered  int64
	Duplicated int64
}

// RunResult holds everything the figure runners need from one simulation.
// It holds no live simulator object, so a result served from the run store
// (Cached) carries exactly what a simulated one does.
type RunResult struct {
	Scenario    Scenario
	Utilization float64
	// FlowSummaries is the detached per-flow view (stats, series, Jury
	// counters) that every figure/table consumer reads.
	FlowSummaries []*FlowSummary
	LinkSummary   LinkSummary
	// Digest fingerprints the run (event stream + final statistics) when
	// the invariant checker was attached; zero otherwise.
	Digest uint64
	// Checked reports whether the run executed under the invariant checker.
	Checked bool
	// Cached reports that the result was loaded from the run store instead
	// of simulated.
	Cached bool
	// Stream is the streaming-observability summary; nil unless the run
	// executed with the Obs runtime attached (or was restored from a record
	// that carried one).
	Stream *obs.StreamSummary
}

// summarize detaches the finished run's flow and link state into
// FlowSummaries / LinkSummary.
func (r *RunResult) summarize(flows []*netsim.Flow, link *netsim.Link) {
	r.FlowSummaries = make([]*FlowSummary, 0, len(flows))
	for _, f := range flows {
		fs := &FlowSummary{rec: runstore.FlowRecord{BaseRTT: f.BaseRTT(), Stats: f.Stats(), Series: f.Series()}}
		if j, ok := f.CC().(*core.Jury); ok {
			fs.rec.Degraded = j.DegradedDecisions()
			fs.rec.NonFinite = j.NonFiniteActions()
		}
		r.FlowSummaries = append(r.FlowSummaries, fs)
	}
	st := link.FaultStats()
	r.LinkSummary = LinkSummary{
		FaultDrops: st.Drops(),
		Reordered:  st.Reordered,
		Duplicated: st.Duplicated,
	}
}

// Run executes a scenario through the run pipeline (see execute). When a run
// store is attached (see AttachStore), the completed result is appended to
// it; in resume mode a scenario whose content key is already stored is
// served from the store without touching the simulator. A failed append is
// the run's error.
func Run(s Scenario) (*RunResult, error) {
	if s.Horizon <= 0 {
		return nil, fmt.Errorf("exp: scenario %q without horizon", s.Name)
	}
	st := Store
	var key runstore.Key
	storable := false
	if st != nil {
		key, storable = ScenarioKey(s)
	}
	if storable && StoreResume {
		if rec, ok := st.Get(key); ok {
			storeCounter("runstore_hits_total", "sweep runs served from the run store").Inc()
			return resultFromRecord(s, rec), nil
		}
		storeCounter("runstore_misses_total", "sweep runs not found in the run store").Inc()
	}
	res, err := execute(job[*RunResult]{
		name:    s.Name,
		seed:    s.Seed,
		horizon: s.Horizon,
		shards:  1,
		check:   s.Check,
		build:   func() (*netsim.Network, error) { return buildDumbbell(s) },
		shape: func(n *netsim.Network, out outcome) *RunResult {
			link := n.Links()[0]
			res := &RunResult{
				Scenario:    s,
				Utilization: link.Utilization(s.Horizon),
				Digest:      out.digest,
				Checked:     out.checked,
				Stream:      out.stream,
			}
			res.summarize(n.Flows(), link)
			return res
		},
	})
	if err != nil || !storable {
		return res, err
	}
	if err := st.Put(recordFromResult(key, s, res)); err != nil {
		return nil, fmt.Errorf("exp: scenario %q: %w", s.Name, err)
	}
	storeCounter("runstore_appends_total", "run records put to the run store (an identical re-put writes nothing)").Inc()
	return res, nil
}

// buildDumbbell is the topology builder behind every Scenario: one
// bottleneck link and the scenario's flows across it.
func buildDumbbell(s Scenario) (*netsim.Network, error) {
	n := netsim.New(netsim.Config{Seed: s.Seed})
	link := n.AddLink(netsim.LinkConfig{
		Rate:        s.Rate,
		Trace:       s.Trace,
		Delay:       s.OneWayDelay,
		BufferBytes: s.BufferBytes,
		LossRate:    s.LossRate,
		Faults:      s.Faults,
	})
	for i, fs := range s.Flows {
		seed := s.Seed*1000 + uint64(i) + 1
		var alg cc.Algorithm
		if fs.CC != nil {
			alg = fs.CC(seed)
		} else {
			var err error
			alg, err = NewScheme(fs.Scheme, seed)
			if err != nil {
				return nil, err
			}
		}
		n.AddFlow(netsim.FlowConfig{
			Name:        fmt.Sprintf("%s-%d", fs.Scheme, i),
			Path:        []*netsim.Link{link},
			Start:       fs.Start,
			Duration:    fs.Duration,
			ExtraOneWay: fs.ExtraOneWay,
			PacketSize:  s.PacketSize,
			CC:          func() cc.Algorithm { return alg },
		})
	}
	return n, n.Validate()
}
