// Run-store wiring: the attached store and the content key of a scenario.
// See DESIGN.md "Run store" and EXPERIMENTS.md "Resumable sweeps".
package exp

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/traces"
)

// KeySchemaVersion is folded into every content key. Bump it whenever the
// key schema changes — a field added or removed, an encoding reordered, a
// new run input that affects results — so stale records can never be
// mistaken for the output of the new code. The bump procedure is:
//
//  1. increment KeySchemaVersion;
//  2. regenerate the pinned keys in TestScenarioKeyStability (run with
//     -run TestScenarioKeyStability -v and copy the reported values);
//  3. note the bump in DESIGN.md "Run store / key schema".
//
// Old records stay readable (the record format is versioned separately) but
// stop matching, so they are re-run and re-stored — exactly the safe
// behavior when the meaning of a key changes.
// Version history: 2 changed only the since-deleted huge-mesh key; 3
// marks the simulator's shorter event stream (a packet's ACK is scheduled
// by its last link, with no delivery event), which moves the simcheck
// digests checked rows store.
const KeySchemaVersion = 3

// Store, when non-nil, records every completed cacheable run. StoreResume
// additionally serves runs whose key is already stored without simulating.
// Use AttachStore to set both.
var (
	Store       *runstore.Store
	StoreResume bool
)

// liveRuns counts actual simulator executions (cache hits excluded); the
// warm-store tests pin it to zero.
var liveRuns atomic.Int64

// AttachStore points the harness at a run store and exports its repair and
// occupancy figures on the telemetry registry (when a hub is live).
func AttachStore(st *runstore.Store, resume bool) {
	Store, StoreResume = st, resume
	hub := Telemetry
	if st == nil || !hub.Enabled() {
		return
	}
	rep := st.Repair()
	hub.Registry.Counter("runstore_repair_torn_bytes_total",
		"bytes dropped by run-store startup repair").Add(rep.WALTorn)
	if rep.Dirty() {
		hub.Registry.Counter("runstore_repairs_total",
			"run-store opens that needed startup repair").Inc()
	}
	hub.Registry.GaugeFunc("runstore_records",
		"distinct run records in the attached store",
		func() float64 { return float64(st.Len()) })
}

// storeCounter returns the named hub counter, or a nil (no-op) counter when
// telemetry is off.
func storeCounter(name, help string) *telemetry.Counter {
	if hub := Telemetry; hub.Enabled() {
		return hub.Registry.Counter(name, help)
	}
	return nil
}

// Key-buffer append helpers. The canonical key serialization is
// little-endian fixed-width fields with length-prefixed strings and
// explicit presence tags — unambiguous, so two different configurations can
// never serialize to the same buffer.
func keyU8(b []byte, v uint8) []byte   { return append(b, v) }
func keyU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func keyU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func keyI64(b []byte, v int64) []byte  { return keyU64(b, uint64(v)) }
func keyF64(b []byte, v float64) []byte {
	return keyU64(b, math.Float64bits(v))
}
func keyStr(b []byte, s string) []byte {
	b = keyU32(b, uint32(len(s)))
	return append(b, s...)
}
func keyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// keyTrace fingerprints a capacity trace. Known concrete types serialize
// exactly; an unknown Trace implementation is fingerprinted by sampling its
// rate at 256 evenly spaced instants of the horizon, which is deterministic
// and captures any behavior a discrete-event run can observe at that
// resolution.
func keyTrace(b []byte, tr traces.Trace, horizon time.Duration) []byte {
	switch t := tr.(type) {
	case nil:
		return keyU8(b, 0)
	case traces.Constant:
		b = keyU8(b, 1)
		return keyF64(b, float64(t))
	case *traces.Step:
		b = keyU8(b, 2)
		b = keyU32(b, uint32(len(t.Points)))
		for _, p := range t.Points {
			b = keyI64(b, int64(p.At))
			b = keyF64(b, p.Rate)
		}
		return keyI64(b, int64(t.Loop))
	default:
		b = keyU8(b, 3)
		const samples = 256
		for i := 0; i < samples; i++ {
			b = keyF64(b, t.RateAt(horizon*time.Duration(i)/samples))
		}
		return b
	}
}

// ScenarioKey derives the content address of a scenario run: a hash over
// every input that determines the result — link configuration, trace,
// faults, flow specs, horizon, seed, the effective check setting — plus
// KeySchemaVersion. The scenario Name is deliberately excluded (it
// labels, it does not simulate). A scenario using a FlowSpec.CC factory
// override is not cacheable (function identity cannot be fingerprinted) and
// reports ok = false.
func ScenarioKey(s Scenario) (key runstore.Key, ok bool) {
	for _, fs := range s.Flows {
		if fs.CC != nil {
			return key, false
		}
	}
	b := make([]byte, 0, 256)
	b = append(b, "jury-scenario"...)
	b = keyU32(b, KeySchemaVersion)
	b = keyF64(b, s.Rate)
	b = keyTrace(b, s.Trace, s.Horizon)
	b = keyI64(b, int64(s.OneWayDelay))
	b = keyI64(b, int64(s.BufferBytes))
	b = keyF64(b, s.LossRate)
	b = keyI64(b, int64(s.PacketSize))
	b = keyFaults(b, s)
	b = keyU32(b, uint32(len(s.Flows)))
	for _, fs := range s.Flows {
		b = keyStr(b, fs.Scheme)
		b = keyI64(b, int64(fs.Start))
		b = keyI64(b, int64(fs.Duration))
		b = keyI64(b, int64(fs.ExtraOneWay))
	}
	b = keyI64(b, int64(s.Horizon))
	b = keyU64(b, s.Seed)
	b = keyBool(b, s.Check || ForceCheck)
	// The shard-cap field of the removed Scenario.Shards knob: every dumbbell
	// ran (and was stored) at 1, so hashing the constant keeps those keys.
	b = keyU32(b, 1)
	return runstore.KeyOf(b), true
}

func keyFaults(b []byte, s Scenario) []byte {
	c := s.Faults
	if !c.Enabled() {
		return keyU8(b, 0)
	}
	b = keyU8(b, 1)
	if c.GE == nil {
		b = keyU8(b, 0)
	} else {
		b = keyU8(b, 1)
		b = keyF64(b, c.GE.PGoodBad)
		b = keyF64(b, c.GE.PBadGood)
		b = keyF64(b, c.GE.LossGood)
		b = keyF64(b, c.GE.LossBad)
	}
	b = keyF64(b, c.ReorderProb)
	b = keyI64(b, int64(c.ReorderMaxDelay))
	b = keyF64(b, c.DupProb)
	b = keyF64(b, c.JitterProb)
	b = keyI64(b, int64(c.JitterMax))
	if c.Flap == nil {
		return keyU8(b, 0)
	}
	b = keyU8(b, 1)
	b = keyI64(b, int64(c.Flap.MeanUp))
	return keyI64(b, int64(c.Flap.MeanDown))
}
