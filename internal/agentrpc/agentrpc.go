// Package agentrpc reproduces the paper's deployment architecture (§4) at
// production scale: the congestion-control datapath and the policy inference
// run in different address spaces, connected by a message channel (the paper
// uses a kernel module talking to a userspace C++ inference service over
// netlink; here a datapath-side Client talks to an inference Server over a
// stream socket with a compact binary protocol).
//
// The Server is an inference daemon with work-conserving
// batching: one batcher goroutine takes the first waiting request plus
// whatever else is already queued (up to MaxBatch) and executes it at once,
// ideally through a BatchDecider policy so one GEMM serves every flow that
// asked while the previous execution ran. No request ever waits for company
// — a lone flow is answered in one forward pass plus the socket round trip.
// Admission control bounds the queue — overload is answered with a typed
// BUSY response, never a silent hang — per-connection read *and* write
// deadlines reclaim stalled peers, policies hot-swap between versions with a
// health gate and automatic rollback on non-finite output, and shutdown
// drains in-flight batches before closing.
//
// The Client implements core.Policy, so a Jury controller can be pointed at
// a remote inference service transparently:
//
//	srv, _ := agentrpc.ServeConfig("127.0.0.1:0", jury.NewReferencePolicy(), agentrpc.Config{})
//	client, _ := agentrpc.Dial(srv.Addr(), fallback)
//	ctrl := core.New(cfg, client)
//
// The client degrades gracefully, because a congestion controller must never
// stall its datapath on a dead inference service: on any transport error it
// serves the decision from a local fallback policy, a capped exponential
// backoff with deterministic jitter paces redials, and a circuit breaker
// trips open after consecutive failures so a dead or overloaded service
// costs zero network latency per decision until a half-open probe detects
// recovery. See wire.go for the exact framing.
package agentrpc

// maxStateDim bounds request sizes; real Jury states are tens of values.
const maxStateDim = 4096

// Policy matches core.Policy without importing it (no dependency cycle and
// the package stays reusable).
type Policy interface {
	Decide(state []float64) (mu, delta float64)
}

// BatchDecider is the fast path a serving policy can implement: one batched
// forward pass over a rows×InputDim() row-major state matrix, writing the
// per-row decisions into mu and delta. core.NNPolicy implements it on the
// batched GEMM kernels; the daemon falls back to per-request Decide calls
// for policies (or mixed-dimension batches) that don't.
type BatchDecider interface {
	Policy
	InputDim() int
	DecideBatch(states []float64, rows int, mu, delta []float64)
}
