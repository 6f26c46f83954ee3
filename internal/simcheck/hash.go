package simcheck

import "math"

// FNV-1a 64-bit constants. The digest folds fixed-width words rather than
// bytes: it is not meant to interoperate with hash/fnv, only to be a stable,
// dependency-free fingerprint of a simulation.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvFold mixes one 64-bit word into the running FNV-1a state, byte by byte
// (little-endian) so that every bit of the word lands in a distinct step.
func fnvFold(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (w >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// StreamHash returns the FNV-1a fold of every executed event's firing time,
// in execution order. Two runs of the same scenario must produce the same
// stream hash; a divergence means the event *schedule* itself differed —
// the earliest possible observation point for nondeterminism, long before
// it shows up in summary statistics.
func (c *Checker) StreamHash() uint64 { return c.stream }

// Digest fingerprints the completed simulation: the event-stream hash plus
// every flow's lifetime counters, every recorded series point, and every
// link's counters. Pooled or parallel runs of a scenario must produce a
// digest bit-identical to a from-scratch sequential replay; the golden
// determinism tests additionally pin the digest of canonical scenarios
// across PRs.
func (c *Checker) Digest() uint64 {
	h := fnvFold(fnvOffset, c.stream)
	return c.foldOutputs(fnvFold(h, c.events))
}

// outputDigest fingerprints what the simulation produced and nothing of how
// it was scheduled: every flow's counters and series and every link's
// counters, folded from the FNV offset. A change that only reshapes the
// event stream (fewer, merged or re-keyed events) moves StreamHash and
// Digest but must leave this fold alone; the golden file pins both.
func (c *Checker) outputDigest() uint64 { return c.foldOutputs(fnvOffset) }

// foldOutputs mixes every flow's lifetime counters and recorded series, then
// every link's counters, into h.
func (c *Checker) foldOutputs(h uint64) uint64 {
	for _, f := range c.net.Flows() {
		st := f.Stats()
		h = fnvFold(h, uint64(st.SentPackets))
		h = fnvFold(h, uint64(st.SentBytes))
		h = fnvFold(h, uint64(st.AckedPackets))
		h = fnvFold(h, uint64(st.AckedBytes))
		h = fnvFold(h, uint64(st.LostPackets))
		h = fnvFold(h, uint64(st.MinRTT))
		h = fnvFold(h, uint64(st.AvgRTT))
		h = fnvFold(h, math.Float64bits(st.AvgThroughputBps))
		for _, p := range f.Series() {
			h = fnvFold(h, uint64(p.T))
			h = fnvFold(h, math.Float64bits(p.ThroughputBps))
			h = fnvFold(h, math.Float64bits(p.SendRateBps))
			h = fnvFold(h, uint64(p.AvgRTT))
			h = fnvFold(h, math.Float64bits(p.LossRate))
			h = fnvFold(h, math.Float64bits(p.Cwnd))
			h = fnvFold(h, math.Float64bits(p.PacingBps))
		}
	}
	for _, l := range c.net.Links() {
		st := l.Stats()
		h = fnvFold(h, uint64(st.DeliveredBytes))
		h = fnvFold(h, uint64(st.DeliveredPackets))
		h = fnvFold(h, uint64(st.OverflowDrops))
		h = fnvFold(h, uint64(st.RandomDrops))
		h = fnvFold(h, uint64(st.MaxQueueBytes))
	}
	return h
}
