// Package agentrpc reproduces the paper's deployment architecture (§4) at
// production scale: the congestion-control datapath and the policy inference
// run in different address spaces, connected by a message channel (the paper
// uses a kernel module talking to a userspace C++ inference service over
// netlink; here a datapath-side Client talks to an inference Server over a
// stream socket with a compact binary protocol).
//
// The Server is an inference daemon that decides on the goroutine of the
// connection that asked: each decision runs through Policy.Decide as soon
// as its frame is read, so concurrent clients are served on every core at
// once and a lone flow is answered in one forward pass plus the socket
// round trip — no hand-off to a shared executor, nothing waits for company.
// Admission control bounds the decisions in flight — overload is answered
// with a typed BUSY response, never a silent hang — a per-decision watchdog
// answers ERR when the policy outlives the serving deadline, a non-finite
// answer is suppressed with ERR, and per-connection read *and* write
// deadlines reclaim stalled peers. The daemon serves the one policy it was
// started with; Close stops it. The served policy must be safe for
// concurrent use (core.NNPolicy is).
//
// The Client implements core.Policy, so a Jury controller can be pointed at
// a remote inference service transparently:
//
//	srv, _ := agentrpc.ServeConfig("127.0.0.1:0", jury.NewReferencePolicy(), agentrpc.Config{})
//	client, _ := agentrpc.Dial(srv.Addr(), fallback)
//	ctrl := core.New(cfg, client)
//
// The client degrades gracefully, because a congestion controller must never
// stall its datapath on a dead inference service: every decision the daemon
// does not answer within the client's Timeout — transport error, BUSY, ERR —
// is served from a local fallback policy, and the next decision redials a
// dropped connection. Each flow owns one client, and its controller calls
// Decide once per control interval. See wire.go for the exact framing.
package agentrpc

// maxStateDim bounds request sizes; real Jury states are tens of values.
const maxStateDim = 4096

// Policy matches core.Policy without importing it (no dependency cycle and
// the package stays reusable). The daemon calls Decide from many
// connection goroutines at once.
type Policy interface {
	Decide(state []float64) (mu, delta float64)
}
