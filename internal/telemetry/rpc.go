package telemetry

import "time"

// RPCDaemonStats is the structural slice of the inference daemon
// (agentrpc.Server) the hub exports: served decisions and policy panics,
// policy executions, admission-control shedding, hot-swap/rollback
// history, and deadline enforcement. The counters are atomics and the
// connection view takes the server's mutex, so all of it is safe to call
// from the debug HTTP goroutine.
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
}

// rpcServerGauges is the daemon's gauge schema: Setup pre-registers each
// family and ExportRPCDaemon points it at the live server.
var rpcServerGauges = []struct {
	name, help string
	read       func(RPCDaemonStats) int64
}{
	{"rpc_server_decisions", "requests the daemon answered OK", RPCDaemonStats.Decisions},
	{"rpc_server_panics", "policy executions lost to a panicking policy", RPCDaemonStats.Panics},
	{"rpc_server_batches", "policy executions run by the daemon (one per admitted decision)", RPCDaemonStats.Batches},
	{"rpc_server_batched_requests", "decisions that entered policy execution (equals rpc_server_batches)", RPCDaemonStats.BatchedRequests},
	{"rpc_server_shed", "requests shed with BUSY by admission control", RPCDaemonStats.Shed},
	{"rpc_server_nonfinite", "decisions suppressed by the non-finite output guard", RPCDaemonStats.NonFinite},
	{"rpc_server_swaps", "successful policy hot-swaps", RPCDaemonStats.Swaps},
	{"rpc_server_rollbacks", "automatic policy-version rollbacks", RPCDaemonStats.Rollbacks},
	{"rpc_server_timeouts", "requests that outlived the serving deadline", RPCDaemonStats.Timeouts},
	{"rpc_server_write_drops", "connections dropped by the response write deadline", RPCDaemonStats.WriteDrops},
	{"rpc_server_queue_depth", "decisions admitted and not yet answered",
		func(s RPCDaemonStats) int64 { return int64(s.QueueDepth()) }},
	{"rpc_server_active_conns", "currently served connections",
		func(s RPCDaemonStats) int64 { return int64(s.ActiveConns()) }},
	{"rpc_server_policy_version", "id of the serving policy version", RPCDaemonStats.PolicyVersion},
}

// ExportRPCDaemon registers callback gauges mirroring the full serving
// surface of the inference daemon.
func (h *Hub) ExportRPCDaemon(s RPCDaemonStats) {
	if h == nil || s == nil {
		return
	}
	r := h.Registry
	for _, g := range rpcServerGauges {
		r.GaugeFunc(g.name, g.help, func() float64 { return float64(g.read(s)) })
	}
}

// RPCClientHook returns a latency hook for agentrpc.Client.SetLatencyHook:
// it feeds the round-trip histogram and the remote/fallback decision
// counters. Returns nil when the hub is disabled, so the client keeps its
// zero-cost nil-hook fast path.
func (h *Hub) RPCClientHook() func(d time.Duration, remote bool) {
	if h == nil {
		return nil
	}
	lat := h.Registry.Histogram("rpc_decide_seconds", "client-observed decision round-trip latency")
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
