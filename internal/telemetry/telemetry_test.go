package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "other help"); again != c {
		t.Fatal("Counter is not get-or-create")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram")
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %g, want 556.5", h.Sum())
	}
	// Bucket occupancy: one sample each, in the eighth-octave bucket whose
	// upper edge is listed.
	var edges []float64
	h.nonEmpty(func(le float64, n int64) {
		if n != 1 {
			t.Errorf("bucket le=%v holds %d samples, want 1", le, n)
		}
		edges = append(edges, le)
	})
	if want := []float64{0.5625, 1.125, 5.5, 52, 512}; fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("non-empty bucket edges %v, want %v", edges, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("count=%d sum=%g, want 8000/8000", h.Count(), h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Add(3)
	r.Gauge("vt_seconds", "virtual time").Set(1.5)
	r.GaugeFunc("live", "callback", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "latency")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE vt_seconds gauge\nvt_seconds 1.5\n",
		"live 42\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.05078125"} 1`, // upper edge of 0.05's bucket
		`lat_seconds_bucket{le="0.5625"} 2`,     // cumulative
		`lat_seconds_bucket{le="2.25"} 3`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 2.55\nlat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestGaugeFuncTakesOverPreRegisteredGauge: preRegister publishes plain
// gauges for the whole schema before subsystems attach; when the owning
// subsystem later registers the live callback under the same name, the
// exposition must show the callback's value exactly once — not a stale
// zero, and not a duplicate series.
func TestGaugeFuncTakesOverPreRegisteredGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("rpc_server_decisions", "requests served")
	r.GaugeFunc("rpc_server_decisions", "requests served", func() float64 { return 827 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "\nrpc_server_decisions "); n != 1 {
		t.Fatalf("gauge exposed %d times, want 1:\n%s", n, out)
	}
	if !strings.Contains(out, "rpc_server_decisions 827\n") {
		t.Fatalf("callback value shadowed by the pre-registered gauge:\n%s", out)
	}

	b.Reset()
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"rpc_server_decisions": 827`) {
		t.Fatalf("JSON exposition shadowed the callback:\n%s", b.String())
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Inc()
	r.Gauge("g", "").Set(7)
	r.Histogram("h", "").Observe(0.5)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if string(out["runs_total"]) != "1" {
		t.Errorf("runs_total = %s", out["runs_total"])
	}
	var hj struct {
		Count   int64     `json:"count"`
		Sum     float64   `json:"sum"`
		Bounds  []float64 `json:"bounds"`
		Buckets []int64   `json:"buckets"`
	}
	if err := json.Unmarshal(out["h"], &hj); err != nil {
		t.Fatal(err)
	}
	if hj.Count != 1 || hj.Sum != 0.5 || len(hj.Buckets) != 1 || hj.Buckets[0] != 1 || hj.Bounds[0] != 0.5625 {
		t.Errorf("histogram JSON = %+v", hj)
	}
}

func TestTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	tr := NewTracer(sink)

	sp := tr.Start("run:alpha", 0)
	sp.End(3*time.Second, Str("outcome", "ok"))
	tr.Event("sim", "drop", 250*time.Millisecond,
		Str("kind", "overflow"), I64("bytes", 1500),
		F64("bad", math.Inf(1)), F64("thr", 1e6), Dur("d", time.Millisecond))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Lines() != 2 {
		t.Fatalf("lines = %d, want 2", sink.Lines())
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatalf("span line not JSON: %v\n%s", err, lines[0])
	}
	if span["t"] != "span" || span["name"] != "run:alpha" || span["outcome"] != "ok" {
		t.Errorf("span = %v", span)
	}
	if span["vt_ns"].(float64) != 3e9 {
		t.Errorf("vt_ns = %v, want 3e9", span["vt_ns"])
	}
	if span["wall_ns"].(float64) < 0 {
		t.Errorf("negative wall_ns: %v", span["wall_ns"])
	}

	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("event line not JSON: %v\n%s", err, lines[1])
	}
	if ev["t"] != "event" || ev["domain"] != "sim" || ev["name"] != "drop" {
		t.Errorf("event = %v", ev)
	}
	if ev["kind"] != "overflow" || ev["bytes"].(float64) != 1500 || ev["thr"].(float64) != 1e6 {
		t.Errorf("event fields = %v", ev)
	}
	if v, present := ev["bad"]; !present || v != nil {
		t.Errorf("non-finite float should expose as null, got %v (present=%v)", v, present)
	}
	if ev["vt_ns"].(float64) != 2.5e8 {
		t.Errorf("vt_ns = %v", ev["vt_ns"])
	}
	if ev["d"].(float64) != 1e6 {
		t.Errorf("Dur field = %v, want 1e6 ns", ev["d"])
	}
}

// TestNilSafety: the entire disabled surface must be callable on nils.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 0 })
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.Event("sim", "x", 0)
	tr.Start("x", 0).End(0)
	var s *Sink
	s.writeLine(nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var hub *Hub
	if hub.Enabled() {
		t.Fatal("nil hub must be disabled")
	}
	hub.Event("exp", "x", 0)
	hub.StartSpan("x", 0).End(0)
	if hub.Training() != nil {
		t.Fatal("nil hub must return a nil training observer")
	}
	hub.Training().EpochEnd(0, 0, 0, 0, 0, 0, 0)
	hub.ExportRPCDaemon(nil)
	if hub.RPCClientHook() != nil {
		t.Fatal("nil hub must return a nil RPC hook")
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	var d *DebugServer
	if d.Addr() != "" || d.Close() != nil {
		t.Fatal("nil debug server must no-op")
	}
}

// TestDisabledZeroAlloc pins the "provably zero hot-path cost" contract:
// every disabled-path operation an instrumented hot loop can hit must not
// allocate.
func TestDisabledZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var hub *Hub
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		h.Observe(1)
	}); n != 0 {
		t.Fatalf("nil instruments allocate %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if hub.Enabled() {
			t.Fatal("unreachable")
		}
	}); n != 0 {
		t.Fatalf("nil hub check allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		hub.StartSpan("x", 0).End(0)
	}); n != 0 {
		t.Fatalf("inert span allocates %.1f/op", n)
	}
}

// TestEnabledEventZeroAlloc: the pooled line scratch keeps steady-state
// event emission allocation-free for fixed-kind fields.
func TestEnabledEventZeroAlloc(t *testing.T) {
	tr := NewTracer(NewSink(io.Discard))
	tr.Event("sim", "warm", 0, I64("x", 1)) // warm the pool
	if n := testing.AllocsPerRun(1000, func() {
		tr.Event("sim", "interval", time.Second, I64("sent", 10), F64("thr", 1e6))
	}); n > 0 {
		t.Fatalf("enabled event emission allocates %.1f/op", n)
	}
}

func TestSetupDisabled(t *testing.T) {
	h, err := Setup(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h != nil {
		t.Fatal("all-off Setup must return a nil hub")
	}
}

func TestSetupTraceAndDebug(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	h, err := Setup(Options{TraceOut: tracePath, DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Enabled() {
		t.Fatal("hub should be enabled")
	}
	h.Event("exp", "hello", 0, Str("k", "v"))
	h.Registry.Counter("sim_packets_sent_total", "").Add(9)

	addr := h.DebugAddr()
	if addr == "" {
		t.Fatal("no debug address")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	// preRegister guarantees all three domains are present even before the
	// corresponding subsystems run.
	for _, want := range []string{
		"sim_packets_sent_total 9",
		"train_epochs_total 0",
		"rpc_remote_decisions_total 0",
		"exp_runs_started_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &js); err != nil {
		t.Fatalf("/metrics.json invalid: %v", err)
	}
	if js["sim_packets_sent_total"].(float64) != 9 {
		t.Errorf("json sim_packets_sent_total = %v", js["sim_packets_sent_total"])
	}
	if !strings.Contains(get("/debug/vars"), "memstats") {
		t.Error("/debug/vars lacks memstats")
	}
	if !strings.Contains(get("/"), "/debug/pprof/") {
		t.Error("index page lacks endpoint listing")
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"name":"hello"`) {
		t.Errorf("trace file missing event: %s", data)
	}
}
