package telemetry

import (
	"fmt"
	"os"
	"time"
)

// Hub bundles one process's telemetry: the metric registry, the span/event
// tracer, and the optional debug server. A nil *Hub is the disabled state —
// every method no-ops — so instrumented packages hold a possibly-nil hub
// and never branch beyond a nil check.
type Hub struct {
	Registry *Registry
	Tracer   *Tracer

	sink  *Sink
	debug *DebugServer
}

// Options mirrors the CLI surface every binary exposes: -telemetry,
// -trace-out, and -debug-addr. Setting TraceOut or DebugAddr implies
// Enabled.
type Options struct {
	Enabled   bool
	TraceOut  string // JSONL spans/events path ("-" for stderr)
	DebugAddr string // live debug endpoint address, e.g. 127.0.0.1:8787
}

// Setup builds a Hub from CLI options. With everything off it returns
// (nil, nil): the disabled hub. Call Close when the run finishes to flush
// the trace sink and stop the debug server.
func Setup(o Options) (*Hub, error) {
	if !o.Enabled && o.TraceOut == "" && o.DebugAddr == "" {
		return nil, nil
	}
	h := &Hub{Registry: NewRegistry()}
	if o.TraceOut != "" {
		var err error
		if o.TraceOut == "-" {
			h.sink = NewSink(nopCloser{os.Stderr})
		} else {
			f, ferr := os.Create(o.TraceOut)
			if ferr != nil {
				err = ferr
			} else {
				h.sink = NewSink(f)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("telemetry: trace output: %w", err)
		}
		h.Tracer = NewTracer(h.sink)
	}
	if o.DebugAddr != "" {
		d, err := ServeDebug(o.DebugAddr, h.Registry)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("telemetry: debug server: %w", err)
		}
		h.debug = d
	}
	h.preRegister()
	return h, nil
}

type nopCloser struct{ w *os.File }

func (n nopCloser) Write(p []byte) (int, error) { return n.w.Write(p) }

// preRegister creates the core metric families of all four runtime domains
// up front, so the exposition page always shows the full schema (zeros
// included) even before — or without — the corresponding subsystem running.
// Each family's help text is written once: here for the sim and exp
// families, which internal/exp looks up by name with an empty help string,
// and in the train and rpc constructors this calls.
func (h *Hub) preRegister() {
	r := h.Registry
	// sim domain: the run pipeline adds each finished run's totals.
	r.Counter("sim_packets_sent_total", "packets transmitted by all flows")
	r.Counter("sim_packets_acked_total", "acknowledgments credited to running senders (not those arriving after a flow stopped)")
	r.Counter("sim_packets_lost_total", "packet losses detected by running senders")
	r.Counter("sim_queue_drops_total", "packets discarded by link queues (overflow + random)")
	r.Counter("sim_faults_injected_total", "fault-injector actions on packets")
	r.Counter("sim_intervals_total", "interval statistics delivered to controllers")
	r.Counter("sim_engine_events_total", "discrete events executed across all shards")
	r.Counter("sim_barrier_rounds_total", "barrier episodes across sharded runs")
	r.Counter("sim_fused_windows_total", "windows that skipped the exchange phase across sharded runs")
	r.Gauge("sim_shards", "shard count of the most recently finished run")
	r.Gauge("sim_virtual_time_seconds", "virtual horizon of the most recently finished run")
	// train and rpc domains
	h.Training()
	h.RPCClientHook()
	for _, g := range rpcServerGauges {
		r.Gauge(g.name, g.help)
	}
	// exp domain
	r.Counter("exp_runs_started_total", "scenario runs started")
	r.Counter("exp_runs_finished_total", "scenario runs finished successfully")
	r.Counter("exp_runs_failed_total", "scenario runs that returned an error")
	r.Histogram("exp_run_seconds", "wall time of one scenario run")
}

// Enabled reports whether the hub is live.
func (h *Hub) Enabled() bool { return h != nil }

// Debug returns the hub's live debug server (nil when none is running),
// letting callers mount extra endpoints via DebugServer.Handle.
func (h *Hub) Debug() *DebugServer {
	if h == nil {
		return nil
	}
	return h.debug
}

// DebugAddr reports the bound debug address ("" when none).
func (h *Hub) DebugAddr() string {
	if h == nil {
		return ""
	}
	return h.debug.Addr()
}

// StartSpan opens a span on the hub's tracer (inert span when disabled or
// when no trace output is configured).
func (h *Hub) StartSpan(name string, virtual time.Duration) Span {
	if h == nil {
		return Span{}
	}
	return h.Tracer.Start(name, virtual)
}

// Event emits a structured event on the hub's tracer (no-op when disabled).
func (h *Hub) Event(domain, name string, virtual time.Duration, kvs ...KV) {
	if h == nil {
		return
	}
	h.Tracer.Event(domain, name, virtual, kvs...)
}

// Close flushes the trace sink and stops the debug server.
func (h *Hub) Close() error {
	if h == nil {
		return nil
	}
	err := h.sink.Close()
	if cerr := h.debug.Close(); err == nil {
		err = cerr
	}
	return err
}
