package exp

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simcore"
)

// Tab3Row is one row of Table 3: the mean per-flow throughput and delay
// ratio for one class of flows in a large-scale mix.
type Tab3Row struct {
	Experiment string // "long-short" or "hetero-rtt"
	Class      string // "overall", "long", "short", "small-rtt", "large-rtt"
	ThrMbps    float64
	DelayRatio float64 // mean RTT / base RTT
	Flows      int
}

// Tab3Options scales the Table 3 experiments. The paper uses a 100-second
// trace repeated 20 times on a ~200 Mbps aggregate; the zero value runs a
// reduced repetition count, 3.
type Tab3Options struct {
	Repeats  int
	Lifetime time.Duration
	Seed     uint64
}

func (o *Tab3Options) defaults() {
	if o.Repeats == 0 {
		o.Repeats = 3
	}
	if o.Lifetime == 0 {
		o.Lifetime = 100 * time.Second
	}
}

// flowAgg accumulates per-class results across repeats.
type flowAgg struct {
	thr   []float64
	ratio []float64
	n     int
}

func (a *flowAgg) add(f metrics.FlowSeries, from, to time.Duration) {
	thr := metrics.MeanThroughput(f, from, to)
	if thr <= 0 {
		return
	}
	a.thr = append(a.thr, thr)
	if rtt := metrics.MeanRTT(f, from, to); rtt > 0 && f.BaseRTT() > 0 {
		a.ratio = append(a.ratio, float64(rtt)/float64(f.BaseRTT()))
	}
	a.n++
}

func (a *flowAgg) row(exp, class string) Tab3Row {
	return Tab3Row{
		Experiment: exp,
		Class:      class,
		ThrMbps:    metrics.Mean(a.thr) / 1e6,
		DelayRatio: metrics.Mean(a.ratio),
		Flows:      a.n,
	}
}

// juryAt is a FlowSpec.CC factory that pins the controller's seed to one
// drawn from the experiment's own RNG stream, in place of the per-index seed
// Run would hand it.
func juryAt(seed uint64) func(uint64) cc.Algorithm {
	return func(uint64) cc.Algorithm { return core.NewDefault(seed) }
}

// tab3Sweep runs one Table 3 experiment: o.Repeats scenarios on the shared
// 15 ms one-way link, each drawing its network seed and then its flows from
// its own RNG stream (seeded o.Seed + rep·stride), fanned out through RunMany.
func tab3Sweep(o Tab3Options, kind string, stride uint64, bufferSec float64, flows func(*simcore.RNG) []FlowSpec) ([]*RunResult, error) {
	const rate = 200e6
	jobs := make([]Scenario, o.Repeats)
	for rep := range jobs {
		rng := simcore.NewRNG(o.Seed + uint64(rep)*stride)
		jobs[rep] = Scenario{
			Name: fmt.Sprintf("tab3-%s-%d", kind, rep),
			Rate: rate, OneWayDelay: 15 * time.Millisecond,
			BufferBytes: int(rate / 8 * bufferSec),
			Horizon:     o.Lifetime, Seed: rng.Uint64(),
		}
		jobs[rep].Flows = flows(rng)
	}
	return RunMany(jobs)
}

// Tab3LongShort runs experiment (i): 4 long-running Jury flows (flows 0–3 of
// each repeat) plus a churn of short flows with Poisson arrivals (λ=4/s) and
// N(4,1)-second lifetimes.
func Tab3LongShort(o Tab3Options) ([]Tab3Row, error) {
	o.defaults()
	results, err := tab3Sweep(o, "long-short", 77, 0.030, func(rng *simcore.RNG) []FlowSpec {
		var flows []FlowSpec
		for i := 0; i < 4; i++ {
			flows = append(flows, FlowSpec{Scheme: "jury", CC: juryAt(rng.Uint64())})
		}
		// Poisson short-flow arrivals.
		for t := 0.0; t < o.Lifetime.Seconds(); t += rng.ExpFloat64() / 4 {
			life := rng.Norm(4, 1)
			if life < 0.5 {
				life = 0.5
			}
			flows = append(flows, FlowSpec{
				Scheme:   "jury",
				Start:    time.Duration(t * float64(time.Second)),
				Duration: time.Duration(life * float64(time.Second)),
				CC:       juryAt(rng.Uint64()),
			})
		}
		return flows
	})
	if err != nil {
		return nil, err
	}
	var long, short, overall flowAgg
	warm := o.Lifetime / 5
	for _, r := range results {
		for _, f := range r.Flows[:4] {
			long.add(f, warm, o.Lifetime)
			overall.add(f, warm, o.Lifetime)
		}
		for _, f := range r.Flows[4:] {
			short.add(f, 0, o.Lifetime)
			overall.add(f, 0, o.Lifetime)
		}
	}
	// The overall row's mean per-flow throughput, summed across concurrently
	// active flows, approximates link usage (the paper reports ~192 Mbps on
	// the 200 Mbps link).
	return []Tab3Row{
		overall.row("long-short", "overall"),
		long.row("long-short", "long"),
		short.row("long-short", "short"),
	}, nil
}

// Tab3HeteroRTT runs experiment (ii): 20 Jury flows, half with 30 ms (even
// indices) and half with 90 ms (odd indices) base RTT.
func Tab3HeteroRTT(o Tab3Options) ([]Tab3Row, error) {
	o.defaults()
	results, err := tab3Sweep(o, "hetero-rtt", 133, 0.090, func(rng *simcore.RNG) []FlowSpec {
		flows := make([]FlowSpec, 20)
		for i := range flows {
			flows[i] = FlowSpec{
				Scheme: "jury", Start: time.Duration(i) * 500 * time.Millisecond,
				CC: juryAt(rng.Uint64()),
			}
			if i%2 == 1 {
				flows[i].ExtraOneWay = 30 * time.Millisecond // 90 ms base RTT
			}
		}
		return flows
	})
	if err != nil {
		return nil, err
	}
	var small, large flowAgg
	warm := o.Lifetime / 3
	for _, r := range results {
		for i, f := range r.Flows {
			if i%2 == 1 {
				large.add(f, warm, o.Lifetime)
			} else {
				small.add(f, warm, o.Lifetime)
			}
		}
	}
	return []Tab3Row{
		small.row("hetero-rtt", "small-rtt"),
		large.row("hetero-rtt", "large-rtt"),
	}, nil
}
