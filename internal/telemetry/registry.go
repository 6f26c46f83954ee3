// Package telemetry is the repository's zero-dependency observability
// layer: a metric registry (atomic counters, gauges, fixed-bucket
// histograms) with Prometheus-text and JSON exposition, lightweight tracing
// spans that carry both wall-clock and simcore virtual time, structured
// JSONL event logs for the sim/training/experiment domains, and a live
// debug HTTP endpoint (pprof, expvar, metrics).
//
// The layer is nil-by-default: every instrument and every hub method is a
// safe no-op on a nil receiver, so instrumented code pays one nil check —
// and zero allocations — when telemetry is disabled. Telemetry only ever
// *observes* a simulation (no RNG draws, no event-queue writes), so a
// deterministic run produces a bit-identical simcheck digest with telemetry
// on or off; TestTelemetryDigestParity pins that guarantee.
package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// ErrBadBuckets reports a histogram bucket slice that cannot define a valid
// partition: empty, not strictly increasing, or containing NaN. Observe
// depends on a strictly increasing bound slice (it binary-searches it), so a
// bad slice would silently misbucket every sample; construction rejects it
// instead.
var ErrBadBuckets = errors.New("telemetry: histogram buckets must be non-empty, finite-or-+Inf-free of NaN, and strictly increasing")

// validateBuckets returns ErrBadBuckets (wrapped with the offending detail)
// unless bounds is non-empty, NaN-free, and strictly increasing.
func validateBuckets(bounds []float64) error {
	if len(bounds) == 0 {
		return fmt.Errorf("%w: empty slice", ErrBadBuckets)
	}
	for i, b := range bounds {
		if math.IsNaN(b) {
			return fmt.Errorf("%w: NaN at index %d", ErrBadBuckets, i)
		}
		if i > 0 && bounds[i-1] >= b {
			return fmt.Errorf("%w: bounds[%d]=%v not above bounds[%d]=%v", ErrBadBuckets, i, b, i-1, bounds[i-1])
		}
	}
	return nil
}

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

// Histogram is a fixed-bucket histogram (cumulative exposition, like
// Prometheus): bounds are inclusive upper bucket limits, with an implicit
// +Inf bucket at the end. A nil Histogram is a no-op. Observe is lock-free
// and allocation-free.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
	name   string
	help   string
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound is >= v; len(bounds) is the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n strictly increasing bucket bounds starting at start
// and growing by factor — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
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

func (r *Registry) addName(name string) {
	r.names = append(r.names, name)
}

// Counter returns the counter registered under name, creating it on first
// use. Nil registries return nil (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counts[name] = c
	r.addName(name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.addName(name)
	return g
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
			r.addName(name)
		}
	}
	r.mu.Unlock()
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (bounds are ignored on reuse). It
// panics on invalid bounds — histogram schemas are compile-time constants in
// this repository, so a bad slice is a programming error; callers taking
// bounds from config should use TryHistogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h, err := r.TryHistogram(name, help, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// TryHistogram is Histogram returning ErrBadBuckets (wrapped) instead of
// panicking when bounds is empty, unsorted, or contains NaN. Validation
// happens at construction only: on reuse, bounds are ignored (passing nil
// to look up an existing histogram is the read-path idiom), and on a nil
// registry the disabled no-op contract wins — nil instrument, no error.
func (r *Registry) TryHistogram(name, help string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h, nil
	}
	if err := validateBuckets(bounds); err != nil {
		return nil, err
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
		name:   name,
		help:   help,
	}
	r.hists[name] = h
	r.addName(name)
	return h, nil
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
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
			fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum()), name, h.Count())
		}
	}
	return bw.Flush()
}

// histJSON is the JSON exposition shape of one histogram.
type histJSON struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"` // non-cumulative; last entry is +Inf
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
				hj := histJSON{Count: h.Count(), Sum: h.Sum(), Bounds: h.bounds}
				for i := range h.counts {
					hj.Buckets = append(hj.Buckets, h.counts[i].Load())
				}
				out[name] = hj
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
