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

// RunResult is one finished scenario run: the scenario and the record the
// run store keeps for it. It holds no live simulator object, so a result
// served from the store (Cached) carries exactly what a simulated one does.
type RunResult struct {
	Scenario Scenario
	// Cached reports that the record was loaded from the run store instead
	// of simulated.
	Cached bool
	runstore.Record
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
			return &RunResult{Scenario: s, Cached: true, Record: *rec}, nil
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
			return &RunResult{Scenario: s, Record: record(key, s, n, out)}
		},
	})
	if err != nil || !storable {
		return res, err
	}
	// The store keeps the result's own record (Put stamps its AppendedAt);
	// a result is not modified after Run returns it.
	if err := st.Put(&res.Record); err != nil {
		return nil, fmt.Errorf("exp: scenario %q: %w", s.Name, err)
	}
	storeCounter("runstore_appends_total", "run records put to the run store (an identical re-put writes nothing)").Inc()
	return res, nil
}

// record detaches a finished dumbbell run into its stored form: the
// bottleneck link's counters, and each flow's stats, series and Jury
// counters.
func record(key runstore.Key, s Scenario, n *netsim.Network, out outcome) runstore.Record {
	link := n.Links()[0]
	fst := link.FaultStats()
	rec := runstore.Record{
		Key:         key,
		Name:        s.Name,
		Schemes:     scenarioSchemes(s),
		Seed:        s.Seed,
		Horizon:     s.Horizon,
		Digest:      out.digest,
		Checked:     out.checked,
		Utilization: link.Utilization(s.Horizon),
		FaultDrops:  fst.Drops(),
		Reordered:   fst.Reordered,
		Duplicated:  fst.Duplicated,
		Flows:       make([]runstore.FlowRecord, 0, len(n.Flows())),
		Stream:      out.stream,
	}
	for _, f := range n.Flows() {
		fr := runstore.FlowRecord{PathRTT: f.BaseRTT(), Stats: f.Stats(), Points: f.Series()}
		if j, ok := f.CC().(*core.Jury); ok {
			fr.Degraded = j.DegradedDecisions()
			fr.NonFinite = j.NonFiniteActions()
		}
		rec.Flows = append(rec.Flows, fr)
	}
	return rec
}

// scenarioSchemes lists the distinct schemes of a scenario in flow order.
func scenarioSchemes(s Scenario) []string {
	seen := make(map[string]bool, len(s.Flows))
	var out []string
	for _, fs := range s.Flows {
		if !seen[fs.Scheme] {
			seen[fs.Scheme] = true
			out = append(out, fs.Scheme)
		}
	}
	return out
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
			Alg:         alg,
		})
	}
	return n, n.Validate()
}
