package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramObserveBoundaries pins the bucket edge semantics: an octave
// splits into eight buckets [lo, hi), a sample on an upper edge opens the
// next bucket, samples ≤ 0 land in the zero bucket (le="0"), and samples
// beyond the covered range clamp into the top bucket (upper edge 2^61).
// Exposition writes one cumulative line per non-empty bucket.
func TestHistogramObserveBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_edges", "")
	for _, v := range []float64{0, -1, 1, 1.1, 1.125, 2, math.Inf(1)} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `h_edges_bucket{le="0"} 2
h_edges_bucket{le="1.125"} 4
h_edges_bucket{le="1.25"} 5
h_edges_bucket{le="2.25"} 6
h_edges_bucket{le="2.305843009213694e+18"} 7
h_edges_bucket{le="+Inf"} 7
`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks the bucket lines\n%s\nin:\n%s", want, b.String())
	}
}

// TestRegistryConcurrentGetOrCreate hammers the get-or-create paths from
// many goroutines under -race: same-name registration must converge on one
// instrument, different names must all materialize, and exposition must be
// safe to run mid-registration.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 64
	var wg sync.WaitGroup

	// Same-name races: every worker must get the same instrument back.
	sameC := make([]*Counter, workers)
	sameG := make([]*Gauge, workers)
	sameH := make([]*Histogram, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sameC[w] = r.Counter("shared_total", "")
			sameG[w] = r.Gauge("shared_gauge", "")
			sameH[w] = r.Histogram("shared_hist", "")
			sameC[w].Inc()
			sameH[w].Observe(1)
			// Distinct names: one family per worker.
			for i := 0; i < perWorker; i++ {
				r.Counter(fmt.Sprintf("w%d_c%d_total", w, i), "").Inc()
				r.GaugeFunc(fmt.Sprintf("w%d_f%d", w, i), "", func() float64 { return 1 })
			}
		}(w)
	}
	// Exposition races registration.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
			}
			if err := r.WriteJSON(io.Discard); err != nil {
				t.Errorf("WriteJSON: %v", err)
			}
		}
	}()
	wg.Wait()

	for w := 1; w < workers; w++ {
		if sameC[w] != sameC[0] || sameG[w] != sameG[0] || sameH[w] != sameH[0] {
			t.Fatalf("worker %d received a different instrument for a shared name", w)
		}
	}
	if got := sameC[0].Value(); got != workers {
		t.Errorf("shared counter = %d, want %d", got, workers)
	}
	if got := sameH[0].Count(); got != workers {
		t.Errorf("shared histogram count = %d, want %d", got, workers)
	}
	if got := r.Counter("w3_c7_total", "").Value(); got != 1 {
		t.Errorf("per-worker counter = %d, want 1", got)
	}
}
