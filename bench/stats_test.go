package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 50, 0},
		{[]float64{5}, 99, 5},
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 99.9, 100},
		{hundred, 100, 100},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 51, 3},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(tc.sorted), tc.p, got, tc.want)
		}
	}
}

func TestMedianOfKeepsSpreadAndCount(t *testing.T) {
	s := medianOf([]float64{9, 2, 5})
	if s.Value != 5 || s.Min != 2 || s.Max != 9 || s.N != 3 {
		t.Errorf("medianOf = %+v", s)
	}
	if s := medianOf(nil); s != (sample{}) {
		t.Errorf("medianOf(nil) = %+v", s)
	}
}

func TestFingerprint(t *testing.T) {
	a, b := newFingerprint(), newFingerprint()
	a.f64(1.5)
	a.str("x")
	b.f64(1.5)
	b.str("x")
	if a != b {
		t.Error("equal inputs, different fingerprints")
	}
	b.u64(0)
	if a == b {
		t.Error("an extra value left the fingerprint unchanged")
	}
	// approx absorbs last-bit jitter and nothing more.
	x, y := newFingerprint(), newFingerprint()
	x.approx(0.9350111533880306)
	y.approx(math.Nextafter(0.9350111533880306, 1))
	if x != y {
		t.Error("approx told neighbouring floats apart")
	}
	y = newFingerprint()
	y.approx(0.935011154)
	if x == y {
		t.Error("approx merged values 1e-9 apart")
	}
}
