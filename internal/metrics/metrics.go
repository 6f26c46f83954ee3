// Package metrics implements the evaluation metrics of the paper: Jain's
// fairness index, link utilization, queuing delay, and summary statistics
// over per-flow time series.
package metrics

import (
	"math"
	"sort"
	"time"

	"repro/internal/netsim"
)

// FlowSeries is the read-only view of a flow the series metrics need. Both
// live *netsim.Flow values and stored run records (runstore.FlowRecord, the
// per-flow part of every exp.RunResult, fresh or read back from the
// WAL-backed run store) satisfy it, so every figure and table computes
// identically from a cached record and a fresh run.
type FlowSeries interface {
	Name() string
	BaseRTT() time.Duration
	Series() []netsim.SeriesPoint
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over the given
// allocations. It is 1 for perfectly equal shares and 1/n when one flow
// takes everything. Empty or all-zero input yields 0.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	// Normalize by the maximum first: the index is scale invariant and this
	// keeps the squares finite for arbitrarily large allocations.
	var max float64
	for _, v := range x {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, v := range x {
		if v < 0 {
			v = 0
		}
		v /= max
		sum += v
		sumsq += v * v
	}
	if sumsq == 0 {
		return 0
	}
	return sum * sum / (float64(len(x)) * sumsq)
}

// MeanThroughput averages a flow's recorded throughput over [from, to].
func MeanThroughput(f FlowSeries, from, to time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range f.Series() {
		if p.T >= from && p.T <= to {
			sum += p.ThroughputBps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanQueuingDelayMS averages (AvgRTT − base RTT) in milliseconds over
// [from, to], skipping samples with no RTT.
func MeanQueuingDelayMS(f FlowSeries, from, to time.Duration) float64 {
	var sum float64
	var n int
	base := f.BaseRTT()
	for _, p := range f.Series() {
		if p.T >= from && p.T <= to && p.AvgRTT > 0 {
			d := float64(p.AvgRTT-base) / float64(time.Millisecond)
			if d < 0 {
				d = 0
			}
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanRTT averages a flow's recorded RTT over [from, to].
func MeanRTT(f FlowSeries, from, to time.Duration) time.Duration {
	var sum time.Duration
	var n int64
	for _, p := range f.Series() {
		if p.T >= from && p.T <= to && p.AvgRTT > 0 {
			sum += p.AvgRTT
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// TimewiseJain computes Jain's index at each recording instant across the
// flows that are active (non-zero throughput window) and returns the mean —
// the "average Jain index" of the paper's Fig. 6, which penalizes both
// unequal equilibria and slow convergence.
func TimewiseJain[F FlowSeries](flows []F) float64 {
	series := make(map[time.Duration][]float64)
	for _, f := range flows {
		for _, p := range f.Series() {
			series[p.T] = append(series[p.T], p.ThroughputBps)
		}
	}
	// Sum instants in time order: float addition is not associative, so map
	// iteration order would make the last bit differ between identical runs.
	instants := make([]time.Duration, 0, len(series))
	for t := range series {
		instants = append(instants, t)
	}
	sort.Slice(instants, func(a, b int) bool { return instants[a] < instants[b] })
	var sum float64
	var n int
	for _, t := range instants {
		shares := series[t]
		if len(shares) < 2 {
			continue // a lone flow is trivially fair; skip
		}
		sum += JainIndex(shares)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Percentile returns the p-th percentile (0..100) of xs using nearest-rank
// on a sorted copy. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// Percentiles returns the percentiles (0..100, nearest-rank) of xs for each
// p in ps, sorting once — use it instead of repeated Percentile calls when
// several quantiles of the same sample are needed. Empty xs yields all
// zeros.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		switch {
		case p <= 0:
			out[i] = s[0]
		case p >= 100:
			out[i] = s[len(s)-1]
		default:
			rank := int(math.Ceil(p/100*float64(len(s)))) - 1
			if rank < 0 {
				rank = 0
			}
			out[i] = s[rank]
		}
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// ConvergenceTime reports how long after `start` the flow first sustains at
// least `fraction` of `fairShare` for `hold` consecutive recorded samples.
// It returns -1 if the flow never converges within its series. The paper
// reads this quantity off the Fig. 7 dynamics ("convergence speed is a
// little slower in large BDP links").
func ConvergenceTime(f FlowSeries, start time.Duration, fairShare float64, fraction float64, hold int) time.Duration {
	if hold < 1 {
		hold = 1
	}
	target := fraction * fairShare
	run := 0
	var runStart time.Duration
	for _, p := range f.Series() {
		if p.T < start {
			continue
		}
		if p.ThroughputBps >= target {
			if run == 0 {
				runStart = p.T
			}
			run++
			if run >= hold {
				return runStart - start
			}
		} else {
			run = 0
		}
	}
	return -1
}
