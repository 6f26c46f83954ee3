package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// The flight recorder is the black-box layer of the observatory: every shard
// keeps a bounded ring of its most recent noteworthy simulation events
// (interval feedback, queue drops, injected faults, invariant violations),
// and a trigger — simcheck violation, degraded-decision increment, fault
// burst, or panic — freezes the rings and dumps their merged, time-ordered
// contents as JSONL. A million-flow run cannot be traced end to end; the
// last few thousand events per shard before the trigger usually can explain
// it.

// Flight-entry kinds. The A..D payload slots are kind-specific:
//
//	kind       A               B                C            D
//	interval   thr (bps)       avg RTT (s)      lost pkts    cwnd
//	drop       bytes           1 if random      —            —
//	fault      bytes           fault kind code  —            —
//	violation  —               —                —            —
//	snapshot   window Jain     cum Jain         samples      —
const (
	flightInterval uint8 = iota
	flightDrop
	flightFault
	flightViolation
	flightSnapshot
)

var flightKindNames = [...]string{"interval", "drop", "fault", "violation", "snapshot"}

// FlightEntry is one ring slot. Fixed-size fields plus one string reference:
// writing an entry never allocates (flow names are interned by netsim).
type FlightEntry struct {
	VT    int64 // virtual time, nanoseconds
	Kind  uint8
	Shard uint16
	Flow  string // "" for link- or run-scoped entries
	Rule  string // violation rule, "" otherwise
	A     float64
	B     float64
	C     float64
	D     float64
}

// flightRing is one shard's ring. The mutex is uncontended in steady state —
// a shard's events execute on one goroutine — and only sees cross-goroutine
// traffic during a dump.
type flightRing struct {
	mu     sync.Mutex
	e      []FlightEntry
	writes uint64
	_      [24]byte // keep neighbouring rings off one cache line
}

func (r *flightRing) record(e FlightEntry) {
	r.mu.Lock()
	r.e[r.writes%uint64(len(r.e))] = e
	r.writes++
	r.mu.Unlock()
}

// snapshotInto appends the ring's entries, oldest first, to dst.
func (r *flightRing) snapshotInto(dst []FlightEntry) []FlightEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.writes
	size := uint64(len(r.e))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	for i := start; i < n; i++ {
		dst = append(dst, r.e[i%size])
	}
	return dst
}

// Recorder is the per-run flight recorder: one ring per shard, dumped as
// JSONL into dir on trigger. A nil Recorder no-ops everywhere.
type Recorder struct {
	rings []flightRing
	dir   string
	seq   atomic.Int32
}

// maxDumps caps flight dumps per run.
const maxDumps = 8

func newRecorder(shards, size int, dir string) *Recorder {
	if size <= 0 {
		size = 2048
	}
	r := &Recorder{rings: make([]flightRing, shards), dir: dir}
	for i := range r.rings {
		r.rings[i].e = make([]FlightEntry, size)
	}
	return r
}

func (r *Recorder) record(shard int, e FlightEntry) {
	if r == nil {
		return
	}
	if shard < 0 || shard >= len(r.rings) {
		shard = 0
	}
	e.Shard = uint16(shard)
	r.rings[shard].record(e)
}

// Dump freezes every ring and writes the merged, VT-ordered entries to
// flight-<seq>-<reason>.jsonl under the recorder's directory. The first
// line is a header object carrying the reason; each following line is one
// entry. Dump count is capped at maxDumps so a systematically broken run
// cannot fill the disk; capped or unconfigured (no directory) dumps return
// ("", nil).
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil || r.dir == "" {
		return "", nil
	}
	seq := r.seq.Add(1)
	if seq > maxDumps {
		return "", nil
	}
	var all []FlightEntry
	for i := range r.rings {
		all = r.rings[i].snapshotInto(all)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].VT < all[j].VT })
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(r.dir, fmt.Sprintf("flight-%03d-%s.jsonl", seq, sanitizeReason(reason)))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(f, "{\"flight\":%q,\"entries\":%d,\"shards\":%d}\n", reason, len(all), len(r.rings))
	for _, e := range all {
		kind := "unknown"
		if int(e.Kind) < len(flightKindNames) {
			kind = flightKindNames[e.Kind]
		}
		fmt.Fprintf(f, "{\"vt_ns\":%d,\"kind\":%q,\"shard\":%d", e.VT, kind, e.Shard)
		if e.Flow != "" {
			fmt.Fprintf(f, ",\"flow\":%q", e.Flow)
		}
		if e.Rule != "" {
			fmt.Fprintf(f, ",\"rule\":%q", e.Rule)
		}
		fmt.Fprintf(f, ",\"a\":%g,\"b\":%g,\"c\":%g,\"d\":%g}\n", e.A, e.B, e.C, e.D)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// Dumps reports how many dump triggers have fired (including any suppressed
// by the cap).
func (r *Recorder) Dumps() int {
	if r == nil {
		return 0
	}
	return int(r.seq.Load())
}

func sanitizeReason(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '-'
		}
	}
	if len(b) == 0 {
		return "trigger"
	}
	return string(b)
}
