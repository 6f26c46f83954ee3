package telemetry

import (
	"fmt"
	"time"
)

// RPCDaemonStats is the structural slice of the inference daemon
// (agentrpc.Server) the hub exports: served decisions and policy panics,
// batching efficiency, admission-control shedding, hot-swap/rollback
// history, deadline enforcement, and per-tenant decision accounting. The
// counters are atomics and the connection/tenant views take the server's
// mutex, so all of it is safe to call from the debug HTTP goroutine.
type RPCDaemonStats interface {
	Decisions() int64
	Panics() int64
	Batches() int64
	BatchedRequests() int64
	Shed() int64
	NonFinite() int64
	Swaps() int64
	Rollbacks() int64
	Timeouts() int64
	WriteDrops() int64
	QueueDepth() int
	ActiveConns() int
	PolicyVersion() int64
	TenantDecisions(name string) int64
	OnTenant(fn func(name string))
}

// ExportRPCDaemon registers callback gauges mirroring the full serving
// surface of the inference daemon, including one decisions gauge per tenant
// label (registered lazily as tenants announce themselves).
func (h *Hub) ExportRPCDaemon(s RPCDaemonStats) {
	if h == nil || s == nil {
		return
	}
	r := h.Registry
	r.GaugeFunc("rpc_server_decisions", "requests the daemon answered OK",
		func() float64 { return float64(s.Decisions()) })
	r.GaugeFunc("rpc_server_panics", "batch executions lost to a panicking policy",
		func() float64 { return float64(s.Panics()) })
	r.GaugeFunc("rpc_server_batches", "policy executions (batched or single) run by the daemon",
		func() float64 { return float64(s.Batches()) })
	r.GaugeFunc("rpc_server_batched_requests", "requests that entered batch execution",
		func() float64 { return float64(s.BatchedRequests()) })
	r.GaugeFunc("rpc_server_shed", "requests shed with BUSY by admission control",
		func() float64 { return float64(s.Shed()) })
	r.GaugeFunc("rpc_server_nonfinite", "decisions suppressed by the non-finite output guard",
		func() float64 { return float64(s.NonFinite()) })
	r.GaugeFunc("rpc_server_swaps", "successful policy hot-swaps",
		func() float64 { return float64(s.Swaps()) })
	r.GaugeFunc("rpc_server_rollbacks", "automatic policy-version rollbacks",
		func() float64 { return float64(s.Rollbacks()) })
	r.GaugeFunc("rpc_server_timeouts", "requests that outlived the serving deadline",
		func() float64 { return float64(s.Timeouts()) })
	r.GaugeFunc("rpc_server_write_drops", "connections dropped by the response write deadline",
		func() float64 { return float64(s.WriteDrops()) })
	r.GaugeFunc("rpc_server_queue_depth", "admitted requests awaiting batch execution",
		func() float64 { return float64(s.QueueDepth()) })
	r.GaugeFunc("rpc_server_active_conns", "currently served connections",
		func() float64 { return float64(s.ActiveConns()) })
	r.GaugeFunc("rpc_server_policy_version", "id of the serving policy version",
		func() float64 { return float64(s.PolicyVersion()) })
	s.OnTenant(func(name string) {
		tenant := name
		r.GaugeFunc("rpc_tenant_decisions_"+tenantMetricName(tenant),
			"decisions served for tenant "+tenant,
			func() float64 { return float64(s.TenantDecisions(tenant)) })
	})
}

// tenantMetricName maps a tenant label onto the metric-name alphabet.
// Sanitization is lossy ("team-a" and "team.a" both become "team_a"), and a
// collision would silently fold two tenants' gauges into one — the later
// registration re-points the GaugeFunc. Any label that sanitization altered
// therefore carries a short FNV-1a hash of the *original* label, which keeps
// distinct tenants distinct while leaving already-clean names untouched.
func tenantMetricName(tenant string) string {
	clean := sanitizeMetricName(tenant)
	if clean == tenant {
		return clean
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * prime
	}
	return fmt.Sprintf("%s_%06x", clean, h&0xffffff)
}

// sanitizeMetricName maps an arbitrary tenant label onto the Prometheus
// metric-name alphabet ([a-zA-Z0-9_]); everything else becomes '_'.
func sanitizeMetricName(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				b[i] = '_'
			}
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// RPCClientHook returns a latency hook for agentrpc.Client.SetLatencyHook:
// it feeds the round-trip histogram and the remote/fallback decision
// counters. Returns nil when the hub is disabled, so the client keeps its
// zero-cost nil-hook fast path.
func (h *Hub) RPCClientHook() func(d time.Duration, remote bool) {
	if h == nil {
		return nil
	}
	lat := h.Registry.Histogram("rpc_decide_seconds", "client-observed decision round-trip latency", ExpBuckets(1e-5, 2, 16))
	remoteC := h.Registry.Counter("rpc_remote_decisions_total", "policy decisions answered by the inference service")
	fallbackC := h.Registry.Counter("rpc_fallback_decisions_total", "policy decisions served by the local fallback")
	return func(d time.Duration, remote bool) {
		lat.Observe(d.Seconds())
		if remote {
			remoteC.Inc()
		} else {
			fallbackC.Inc()
		}
	}
}
