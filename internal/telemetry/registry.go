// Package telemetry is the repository's zero-dependency observability
// layer: a metric registry (atomic counters, gauges, log-bucketed
// histograms) with Prometheus-text and JSON exposition, lightweight tracing
// spans that carry both wall-clock and simcore virtual time, structured
// JSONL event logs for the sim/training/experiment domains, and a live
// debug HTTP endpoint (pprof, expvar, metrics).
//
// The layer is nil-by-default: every instrument and every hub method is a
// safe no-op on a nil receiver, so instrumented code pays one nil check —
// and zero allocations — when telemetry is disabled. Telemetry imports no
// domain package and attaches nothing to a simulation: the run pipeline
// (internal/exp) adds each finished run's totals to the sim counters, so a
// deterministic run produces a bit-identical simcheck digest with telemetry
// on or off; TestTelemetryDigestParity pins that guarantee.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// usable; a nil Counter is a no-op.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a log-bucketed histogram: a fixed array of buckets over
// positive float64 samples whose index is carved straight out of the
// sample's bit pattern (biased exponent plus the top histSubBits mantissa
// bits), so Observe is a shift, a mask and an atomic increment — no search,
// no allocation. With 8 sub-buckets per octave a quantile is within half a
// bucket width (≤ ~6 %) of the exact one, and the layout needs no bounds
// from its caller. The covered range is 2^-60 .. 2^+60 (≈1e-18 .. 1e18);
// samples outside it clamp into the edge buckets, and zero, negative and NaN
// samples count into a zero bucket (and add nothing to the sum). Counts are
// atomic, so a registry histogram takes concurrent Observe calls; two
// histograms merge by adding their arrays, which is how obs folds its
// per-shard accumulators. A nil Histogram is a no-op.
type Histogram struct {
	count   atomic.Int64  // all samples, including the zero bucket
	zero    atomic.Int64  // samples ≤ 0 or NaN
	sum     atomic.Uint64 // float64 bits of the sum of positive samples
	buckets [histBuckets]atomic.Int64
	name    string
	help    string
}

const (
	histSubBits = 3                          // mantissa bits per bucket
	histSub     = 1 << histSubBits           // sub-buckets per octave
	histSpan    = 60                         // octaves on each side of 1.0
	histBuckets = (2*histSpan + 1) * histSub // total array size
	histMinExp  = 1023 - histSpan            // lowest biased exponent covered
)

// Observe records one sample. The bucket is counted before the total, so a
// concurrent reader never sees a count its buckets cannot account for.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v > 0 {
		idx := int(math.Float64bits(v)>>(52-histSubBits)) - histMinExp*histSub
		h.buckets[min(max(idx, 0), histBuckets-1)].Add(1)
		h.addSum(v)
	} else { // 0, negatives and NaN
		h.zero.Add(1)
	}
	h.count.Add(1)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Merge adds other's samples to h.
func (h *Histogram) Merge(other *Histogram) {
	h.zero.Add(other.zero.Load())
	for i := range h.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.addSum(other.Sum())
}

// bucketEdges returns the lower and upper edge of bucket idx.
func bucketEdges(idx int) (lo, hi float64) {
	exp := idx/histSub + histMinExp - 1023
	sub := float64(idx % histSub)
	return math.Ldexp(1+sub/histSub, exp), math.Ldexp(1+(sub+1)/histSub, exp)
}

// Quantile returns the q-th quantile (0..1) by a nearest-rank walk: the
// midpoint of the bucket holding the sample of rank ⌊q·(n−1)⌋, 0 when that
// sample is in the zero bucket or the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := int64(q * float64(n-1))
	cum := h.zero.Load()
	if rank < cum {
		return 0
	}
	idx := histBuckets - 1
	for i := range h.buckets {
		if cum += h.buckets[i].Load(); rank < cum {
			idx = i
			break
		}
	}
	lo, hi := bucketEdges(idx)
	return (lo + hi) / 2
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all positive observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// nonEmpty calls fn with the upper edge and count of every non-empty bucket
// in increasing order, the zero bucket (edge 0) first.
func (h *Histogram) nonEmpty(fn func(le float64, n int64)) {
	if z := h.zero.Load(); z != 0 {
		fn(0, z)
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			_, hi := bucketEdges(i)
			fn(hi, c)
		}
	}
}

// gaugeFunc is a read-on-exposition gauge backed by a callback, used to
// export counters owned by other subsystems (Jury decision guards, RPC
// server panics) without polling loops. The callback must be safe to call
// from the debug HTTP goroutine (read atomics or take the owner's lock).
type gaugeFunc struct {
	name string
	help string

	mu sync.Mutex
	fn func() float64
}

func (g *gaugeFunc) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Registry holds named instruments and renders them as Prometheus text or
// JSON. All methods are safe for concurrent use; instrument constructors are
// get-or-create, so attaching telemetry to many runs reuses one instrument
// per name. A nil Registry hands out nil instruments, keeping every
// downstream operation a no-op.
type Registry struct {
	mu     sync.Mutex
	names  []string // registration order; sorted at exposition time
	counts map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]*gaugeFunc
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		funcs:  map[string]*gaugeFunc{},
		hists:  map[string]*Histogram{},
	}
}

// getOrCreate returns m[name], making and registering it on first use.
func getOrCreate[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v := mk()
	m[name] = v
	r.names = append(r.names, name)
	return v
}

// Counter returns the counter registered under name, creating it on first
// use. Nil registries return nil (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counts, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// GaugeFunc registers (or re-points) a callback-backed gauge. Re-pointing is
// deliberate: each experiment run re-attaches its own live network, and the
// debug page should show the most recent one. A callback also takes over a
// plain Gauge pre-registered under the same name (preRegister publishes the
// schema before the owning subsystem runs): the plain instrument is dropped
// so exposition resolves the live callback instead of a stale zero, and the
// name stays single in the exposition order.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	g, ok := r.funcs[name]
	if !ok {
		g = &gaugeFunc{name: name, help: help}
		r.funcs[name] = g
		if _, shadowed := r.gauges[name]; shadowed {
			delete(r.gauges, name)
		} else {
			r.names = append(r.names, name)
		}
	}
	r.mu.Unlock()
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, name, func() *Histogram { return &Histogram{name: name, help: help} })
}

// snapshot returns the registered names in sorted order plus the lookup
// maps, under one lock acquisition.
func (r *Registry) snapshot() []string {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (metrics sorted by name). A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, name := range r.snapshot() {
		r.mu.Lock()
		c := r.counts[name]
		g := r.gauges[name]
		gf := r.funcs[name]
		h := r.hists[name]
		r.mu.Unlock()
		switch {
		case c != nil:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, c.help, name, name, c.Value())
		case g != nil:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, g.help, name, name, fmtFloat(g.Value()))
		case gf != nil:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, gf.help, name, name, fmtFloat(gf.value()))
		case h != nil:
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n", name, h.help, name)
			var cum int64
			h.nonEmpty(func(le float64, n int64) {
				cum += n
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, fmtFloat(le), cum)
			})
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum()), name, cum)
		}
	}
	return bw.Flush()
}

// histJSON is the JSON exposition shape of one histogram.
type histJSON struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`  // upper edges of the non-empty buckets
	Buckets []int64   `json:"buckets"` // their non-cumulative counts
}

// WriteJSON renders every instrument as one JSON object keyed by metric
// name. A nil registry writes an empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]any{}
	if r != nil {
		for _, name := range r.snapshot() {
			r.mu.Lock()
			c := r.counts[name]
			g := r.gauges[name]
			gf := r.funcs[name]
			h := r.hists[name]
			r.mu.Unlock()
			switch {
			case c != nil:
				out[name] = c.Value()
			case g != nil:
				out[name] = g.Value()
			case gf != nil:
				out[name] = gf.value()
			case h != nil:
				hj := histJSON{Count: h.Count(), Sum: h.Sum()}
				h.nonEmpty(func(le float64, n int64) {
					hj.Bounds = append(hj.Bounds, le)
					hj.Buckets = append(hj.Buckets, n)
				})
				out[name] = hj
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
