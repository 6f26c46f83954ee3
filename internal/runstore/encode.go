// Record wire format. Hand-rolled little-endian encoding in the style of
// agentrpc's request framing: a pure append function and a pure decoder that
// are exact inverses (decodeRecord(b) == rec ⇒ appendRecord(nil, rec) == b),
// which is the round-trip property FuzzWALDecode drives. The decoder is
// strict — unknown versions, non-canonical booleans, oversized counts, and
// trailing bytes are all errors — so every payload has exactly one valid
// encoding and a corrupted record can never silently decode into a
// different one.
package runstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

const (
	// recVersion 2 added FlowRecord.LateMeanBps and the optional Record
	// .Stream summary; 3 dropped LateMeanBps and the huge-mesh payload
	// (Events, ShardExecuted). The decoder is strict-single-version: an
	// older record fails decode, so a writable open truncates the log at the
	// first one and those runs are simulated again. That keeps the
	// encode/decode bijection exact.
	recVersion = 3

	// Frame layout: u32 payload length, u32 CRC32C of the payload, payload.
	frameHdrLen = 8
	// maxFrame bounds a single record. A long many-flow scenario's series
	// run to megabytes; anything beyond this is torn or corrupt framing.
	maxFrame = 64 << 20

	// Per-element minimum encoded sizes, used to bound count fields against
	// the remaining input before allocating.
	minStrBytes   = 4
	minFlowBytes  = 4 + 8 + 9*8 + 2*8 + 2*8 + 4
	minPointBytes = 7 * 8
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendRecord serializes rec's payload (without framing) onto dst.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, recVersion)
	dst = append(dst, rec.Key[:]...)
	dst = appendStr(dst, rec.Name)
	dst = appendU32(dst, uint32(len(rec.Schemes)))
	for _, s := range rec.Schemes {
		dst = appendStr(dst, s)
	}
	dst = appendU64(dst, rec.Seed)
	dst = appendI64(dst, rec.AppendedAt)
	dst = appendI64(dst, int64(rec.Horizon))
	dst = appendU64(dst, rec.Digest)
	dst = appendBool(dst, rec.Checked)
	dst = appendF64(dst, rec.Utilization)
	dst = appendI64(dst, rec.FaultDrops)
	dst = appendI64(dst, rec.Reordered)
	dst = appendI64(dst, rec.Duplicated)
	dst = appendU32(dst, uint32(len(rec.Flows)))
	for i := range rec.Flows {
		f := &rec.Flows[i]
		dst = appendStr(dst, f.Stats.Name)
		dst = appendI64(dst, int64(f.PathRTT))
		dst = appendI64(dst, int64(f.Stats.Start))
		dst = appendI64(dst, int64(f.Stats.ActiveFor))
		dst = appendI64(dst, f.Stats.SentPackets)
		dst = appendI64(dst, f.Stats.SentBytes)
		dst = appendI64(dst, f.Stats.AckedPackets)
		dst = appendI64(dst, f.Stats.AckedBytes)
		dst = appendI64(dst, f.Stats.LostPackets)
		dst = appendI64(dst, int64(f.Stats.MinRTT))
		dst = appendI64(dst, int64(f.Stats.AvgRTT))
		dst = appendF64(dst, f.Stats.AvgThroughputBps)
		dst = appendF64(dst, f.Stats.LossRate)
		dst = appendI64(dst, f.Degraded)
		dst = appendI64(dst, f.NonFinite)
		dst = appendU32(dst, uint32(len(f.Points)))
		for _, p := range f.Points {
			dst = appendI64(dst, int64(p.T))
			dst = appendF64(dst, p.ThroughputBps)
			dst = appendF64(dst, p.SendRateBps)
			dst = appendI64(dst, int64(p.AvgRTT))
			dst = appendF64(dst, p.LossRate)
			dst = appendF64(dst, p.Cwnd)
			dst = appendF64(dst, p.PacingBps)
		}
	}
	dst = appendBool(dst, rec.Stream != nil)
	if s := rec.Stream; s != nil {
		dst = appendF64(dst, s.FinalJain)
		dst = appendF64(dst, s.MinWindowJain)
		dst = appendI64(dst, s.Snapshots)
		dst = appendI64(dst, s.Samples)
		dst = appendF64(dst, s.RateP50)
		dst = appendF64(dst, s.RateP95)
		dst = appendF64(dst, s.RateP99)
		dst = appendF64(dst, s.RTTP50)
		dst = appendF64(dst, s.RTTP95)
		dst = appendF64(dst, s.RTTP99)
		dst = appendI64(dst, s.Drops)
		dst = appendI64(dst, s.Faults)
		dst = appendI64(dst, s.Degraded)
	}
	return dst
}

// reader is a cursor over an untrusted payload; the first failure latches.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("runstore: truncated payload at offset %d (want %d bytes, %d left)", r.off, n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64         { return int64(r.u64()) }
func (r *reader) f64() float64       { return math.Float64frombits(r.u64()) }
func (r *reader) dur() time.Duration { return time.Duration(r.i64()) }

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int64(n) > int64(r.remaining()) {
		r.fail("runstore: string length %d exceeds %d remaining bytes", n, r.remaining())
		return ""
	}
	return string(r.bytes(int(n)))
}

func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("runstore: non-canonical boolean")
		return false
	}
}

// count validates an element count against the remaining bytes so a
// corrupted length field cannot drive an outsized allocation.
func (r *reader) count(what string, minBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minBytes) > int64(r.remaining()) {
		r.fail("runstore: %s count %d exceeds %d remaining bytes", what, n, r.remaining())
		return 0
	}
	return int(n)
}

// decodeRecord parses one framed payload. It fails on any structural error
// and on trailing bytes, so decode∘encode is the identity on valid records
// and encode∘decode is the identity on valid payloads.
func decodeRecord(b []byte) (*Record, error) {
	r := &reader{b: b}
	if v := r.u8(); r.err == nil && v != recVersion {
		return nil, fmt.Errorf("runstore: record version %d, want %d", v, recVersion)
	}
	rec := &Record{}
	copy(rec.Key[:], r.bytes(len(rec.Key)))
	rec.Name = r.str()
	if n := r.count("scheme", minStrBytes); n > 0 {
		rec.Schemes = make([]string, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			rec.Schemes = append(rec.Schemes, r.str())
		}
	}
	rec.Seed = r.u64()
	rec.AppendedAt = r.i64()
	rec.Horizon = r.dur()
	rec.Digest = r.u64()
	rec.Checked = r.boolean()
	rec.Utilization = r.f64()
	rec.FaultDrops = r.i64()
	rec.Reordered = r.i64()
	rec.Duplicated = r.i64()
	if n := r.count("flow", minFlowBytes); n > 0 {
		rec.Flows = make([]FlowRecord, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var f FlowRecord
			f.Stats.Name = r.str()
			f.PathRTT = r.dur()
			f.Stats.Start = r.dur()
			f.Stats.ActiveFor = r.dur()
			f.Stats.SentPackets = r.i64()
			f.Stats.SentBytes = r.i64()
			f.Stats.AckedPackets = r.i64()
			f.Stats.AckedBytes = r.i64()
			f.Stats.LostPackets = r.i64()
			f.Stats.MinRTT = r.dur()
			f.Stats.AvgRTT = r.dur()
			f.Stats.AvgThroughputBps = r.f64()
			f.Stats.LossRate = r.f64()
			f.Degraded = r.i64()
			f.NonFinite = r.i64()
			if m := r.count("series point", minPointBytes); m > 0 {
				f.Points = make([]netsim.SeriesPoint, 0, m)
				for j := 0; j < m && r.err == nil; j++ {
					f.Points = append(f.Points, netsim.SeriesPoint{
						T:             r.dur(),
						ThroughputBps: r.f64(),
						SendRateBps:   r.f64(),
						AvgRTT:        r.dur(),
						LossRate:      r.f64(),
						Cwnd:          r.f64(),
						PacingBps:     r.f64(),
					})
				}
			}
			rec.Flows = append(rec.Flows, f)
		}
	}
	if r.boolean() {
		s := &obs.StreamSummary{}
		s.FinalJain = r.f64()
		s.MinWindowJain = r.f64()
		s.Snapshots = r.i64()
		s.Samples = r.i64()
		s.RateP50 = r.f64()
		s.RateP95 = r.f64()
		s.RateP99 = r.f64()
		s.RTTP50 = r.f64()
		s.RTTP95 = r.f64()
		s.RTTP99 = r.f64()
		s.Drops = r.i64()
		s.Faults = r.i64()
		s.Degraded = r.i64()
		if r.err == nil {
			rec.Stream = s
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("runstore: %d trailing bytes after record", r.remaining())
	}
	return rec, nil
}

// appendFrame wraps one encoded payload in the length+CRC32C frame.
func appendFrame(dst, payload []byte) []byte {
	dst = appendU32(dst, uint32(len(payload)))
	dst = appendU32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// scanReport is the outcome of walking a file's record region.
type scanReport struct {
	recs     []*Record
	validLen int64  // bytes (from the region start) that framed and decoded cleanly
	tornLen  int64  // bytes dropped after validLen
	note     string // description of the first corruption ("" when clean)
}

// scanRecords walks framed records until the data ends or the first
// invalid frame. Everything after the first damage is untrusted — record
// boundaries downstream of a corrupt length field cannot be recovered — so
// repair truncates there, exactly like a torn tail.
func scanRecords(data []byte) scanReport {
	var rep scanReport
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHdrLen {
			rep.note = fmt.Sprintf("torn frame header at offset %d (%d bytes)", off, rest)
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame || int64(n) > int64(rest-frameHdrLen) {
			rep.note = fmt.Sprintf("torn or corrupt record at offset %d (frame length %d, %d bytes left)", off, n, rest-frameHdrLen)
			break
		}
		payload := data[off+frameHdrLen : off+frameHdrLen+int(n)]
		if crc32.Checksum(payload, crcTable) != crc {
			rep.note = fmt.Sprintf("CRC mismatch at offset %d", off)
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			rep.note = fmt.Sprintf("undecodable record at offset %d: %v", off, err)
			break
		}
		rep.recs = append(rep.recs, rec)
		off += frameHdrLen + int(n)
		rep.validLen = int64(off)
	}
	rep.tornLen = int64(len(data)) - rep.validLen
	return rep
}

// The WAL header: an 8-byte magic, a u32 format version, and a u32 CRC32C
// of the first 12 bytes, so corruption of the header itself is detected.
const (
	headerLen     = 16
	formatVersion = 1
	magicWAL      = "JURYWAL1"
)

func fileHeader() []byte {
	b := make([]byte, 0, headerLen)
	b = append(b, magicWAL...)
	b = appendU32(b, formatVersion)
	return appendU32(b, crc32.Checksum(b, crcTable))
}

func checkHeader(data []byte) error {
	if len(data) < headerLen {
		return fmt.Errorf("runstore: torn file header (%d bytes)", len(data))
	}
	if string(data[:8]) != magicWAL {
		return fmt.Errorf("runstore: bad magic %q, want %q", data[:8], magicWAL)
	}
	if crc32.Checksum(data[:12], crcTable) != binary.LittleEndian.Uint32(data[12:]) {
		return fmt.Errorf("runstore: corrupt file header")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		return fmt.Errorf("runstore: file format version %d, want %d", v, formatVersion)
	}
	return nil
}
