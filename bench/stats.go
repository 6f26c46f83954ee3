package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is one metric as measured: the reported value (a median unless
// stated otherwise) with the spread and count behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// medianOf summarizes repeated measurements of one quantity.
func medianOf(vs []float64) sample {
	if len(vs) == 0 {
		return sample{}
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return sample{Value: median(vs), Min: lo, Max: hi, N: len(vs)}
}

// one wraps a single measurement.
func one(v float64) sample { return sample{Value: v, Min: v, Max: v, N: 1} }

// fingerprint is an FNV-1a fold over the outputs a workload produced, so
// reps of one run, and runs of two commits, can be compared for equality.
type fingerprint uint64

func newFingerprint() fingerprint { return 14695981039346656037 }

func (f fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

func (f *fingerprint) u64(v uint64) {
	h := uint64(*f)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	*f = fingerprint(h)
}

func (f *fingerprint) f64(v float64) { f.u64(math.Float64bits(v)) }

// approx folds v rounded to nine decimals. metrics.TimewiseJain sums its
// per-instant indices in map-iteration order, so the Jain values built on
// it differ in the last bit between two identical runs; everything else
// the workloads output repeats exactly and is folded with f64.
func (f *fingerprint) approx(v float64) { f.u64(uint64(int64(math.Round(v * 1e9)))) }

func (f *fingerprint) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.u64(uint64(s[i]))
	}
}
