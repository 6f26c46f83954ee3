// Package runstore is a WAL-backed, content-addressed store of experiment
// run records. Sweeps (exp.RunMany, exp.RobustnessTable — every caller of
// exp.Run) append one record per completed scenario run, keyed by a content
// hash over the run's inputs (link, trace, faults, flows, seed — see
// exp.ScenarioKey); on restart the store replays its log and the sweep skips
// every run whose key is already present, making multi-hour fairness
// matrices resumable after a crash.
//
// Storage discipline (see DESIGN.md "Run store"): one file, wal.log, an
// append-only write-ahead log with CRC32C per-record framing and a
// configurable fsync policy (always/interval/never), torn-tail truncation
// and startup repair. Open is its only reader. There is no compaction: Put
// skips a record whose bytes (apart from AppendedAt) the log already holds,
// so re-running a sweep does not grow the file. Every byte is covered by a
// checksum (header CRC or record CRC), so any single-bit corruption is
// either detected or repaired by dropping the damaged suffix — a property
// the crash/corruption test harness in this package proves exhaustively.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/netsim"
)

// Key is the 256-bit content address of a run: a SHA-256 over the canonical
// serialization of everything that determines the run's outcome. Two runs
// with equal keys are the same experiment; the store keeps one record per
// key (last write wins).
type Key [32]byte

// KeyOf hashes a canonical key buffer.
func KeyOf(b []byte) Key { return sha256.Sum256(b) }

// String returns the full lowercase-hex key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Short returns a 12-hex-digit prefix for display.
func (k Key) Short() string { return hex.EncodeToString(k[:6]) }

// FlowRecord is the stored summary of one flow of a run: lifetime stats,
// the recorded throughput/RTT series, and the Jury guard counters. It is
// exactly the data exp.FlowSummary serves back to the figure runners, so a
// cache hit is indistinguishable from a live run to every consumer.
type FlowRecord struct {
	BaseRTT   time.Duration
	Stats     netsim.FlowStats
	Degraded  int64 // core.Jury degraded (AIMD-fallback) decisions; 0 for other schemes
	NonFinite int64 // core.Jury non-finite actions that reached Eq. 7 (must be 0)
	Series    []netsim.SeriesPoint
}

// StreamSummary is the compact streaming-observability digest of a run
// (obs.StreamSummary, mirrored here so the store stays free of upper-layer
// imports): the final and worst windowed Jain, sketch percentiles of rate
// and RTT, and the fault/degradation counters.
type StreamSummary struct {
	FinalJain     float64
	MinWindowJain float64
	Snapshots     int64
	Samples       int64
	RateP50       float64
	RateP95       float64
	RateP99       float64
	RTTP50        float64
	RTTP95        float64
	RTTP99        float64
	Drops         int64
	Faults        int64
	Degraded      int64
}

// Record is one stored run.
type Record struct {
	Key      Key
	Scenario string   // scenario label (not part of the key)
	Schemes  []string // distinct CC schemes of the run, in flow order
	Seed     uint64
	// AppendedAt is the wall-clock unix-nanosecond timestamp of the append;
	// Put stamps it when zero. It feeds the "appended" column of `jury exp
	// store ls` only — it is deliberately excluded from the key and from any
	// result data.
	AppendedAt int64
	Horizon    time.Duration
	Digest     uint64 // simcheck digest (zero unless Checked)
	Checked    bool

	Utilization float64
	FaultDrops  int64
	Reordered   int64
	Duplicated  int64
	Flows       []FlowRecord

	// Stream is the streaming-observability summary of the run; nil when the
	// run executed without the obs layer attached.
	Stream *StreamSummary
}

// Policy selects when the WAL is fsynced.
type Policy int

const (
	// FsyncInterval (the default) syncs at most once per second of wall
	// time, amortizing the flush over many appends.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append: a crash loses at most the
	// record being written.
	FsyncAlways
	// FsyncNever leaves flushing to Close and the OS.
	FsyncNever
)

// ParsePolicy maps the -store-fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("runstore: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}
