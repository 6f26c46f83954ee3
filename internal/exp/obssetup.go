// Streaming-observability wiring shared by the binaries: one call builds the
// obs runtime from the -obs/-obs-window/-flight-dir flags, installs it on the
// harness, and mounts the live fairness surfaces on the telemetry debug
// server. See DESIGN.md "Streaming observability".
package exp

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Obs, when non-nil, attaches a constant-memory streaming fairness observer
// to every run of the pipeline: windowed Jain and rate/RTT percentile
// snapshots in virtual time, a per-shard flight recorder, and a compact
// StreamSummary on the result. Set it directly or via SetupObs. Attaching
// obs never changes what a run computes — the digest-parity tests pin that.
var Obs *obs.Runtime

// SetupObs builds the streaming-observability runtime from the shared flag
// values, installs it as the package-level Obs, and mounts the live
// /fairness (JSON) and /fairness/stream (SSE) surfaces on the hub's debug
// server when one is listening. A non-empty flightDir implies enabled.
// Returns nil — and installs nothing — when the observer is off.
func SetupObs(enabled bool, window time.Duration, flightDir string, hub *telemetry.Hub) *obs.Runtime {
	if !enabled && flightDir == "" {
		return nil
	}
	rt := obs.New(obs.Options{Window: window, FlightDir: flightDir})
	Obs = rt
	if d := hub.Debug(); d != nil {
		d.Handle("/fairness", rt.State())
		d.Handle("/fairness/stream", rt.State().StreamHandler())
	}
	return rt
}
