package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Sentinel errors.
var (
	ErrReadOnly = errors.New("runstore: store is read-only")
	ErrClosed   = errors.New("runstore: store is closed")
	// ErrDigestMismatch means a re-executed run produced a different
	// simcheck digest than the record already stored under the same key:
	// either the simulator became nondeterministic or the key schema no
	// longer captures an input that matters. Both are bugs worth failing a
	// sweep over.
	ErrDigestMismatch = errors.New("runstore: digest mismatch for existing key")
)

// file is the handle surface the store's write path needs. It is an
// interface so the crash tests can substitute a failingFile that dies after
// N bytes, simulating a power cut at every possible record boundary.
type file interface {
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

func defaultOpen(path string) (file, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// syncPeriod is the minimum wall-clock spacing of WAL syncs under
// FsyncInterval.
const syncPeriod = time.Second

// Options configures Open.
type Options struct {
	// Dir is the store directory; it holds wal.log.
	Dir string
	// Fsync is the WAL flush policy (default FsyncInterval).
	Fsync Policy
	// ReadOnly opens the store for inspection: repair is computed in memory
	// but nothing on disk is modified, and Put fails with ErrReadOnly.
	ReadOnly bool

	// open is the file-open seam the crash-injection tests replace.
	open func(path string) (file, error)
}

// RepairReport describes what startup repair found (and, unless the store
// is read-only, fixed by truncation).
type RepairReport struct {
	WALRecords      int
	WALTorn         int64 // WAL bytes truncated (torn tail / corrupt suffix)
	WALNote         string
	HeaderRewritten bool // the WAL header itself was damaged and rewritten
}

// Dirty reports whether repair found anything wrong.
func (r RepairReport) Dirty() bool {
	return r.WALTorn != 0 || r.HeaderRewritten
}

// Store is an append-only, checksummed, content-addressed store of run
// records: an in-memory index (one record per key, insertion-ordered)
// backed by wal.log. All methods are safe for concurrent use by the
// parallel sweep runner.
type Store struct {
	mu   sync.Mutex
	opts Options

	wal      file // nil when read-only
	goodOff  int64
	lastSync time.Time

	recs   []*Record
	byKey  map[Key]int // key -> index into recs
	repair RepairReport
	closed bool
}

func (o *Options) walPath() string { return filepath.Join(o.Dir, "wal.log") }

// Open loads (and, unless ReadOnly, repairs) the store in opts.Dir,
// creating it if needed. The WAL replays in append order with
// last-write-wins per key.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("runstore: no directory")
	}
	if opts.open == nil {
		opts.open = defaultOpen
	}
	s := &Store{opts: opts, byKey: make(map[Key]int)}
	if !opts.ReadOnly {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
	}

	// Parse, then truncate the file back to its last valid record so
	// appends land on a clean tail.
	walData, err := os.ReadFile(opts.walPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var validOff int64 = headerLen
	switch {
	case len(walData) == 0:
		// Fresh store.
	default:
		recs, rep := loadRecordFile(walData)
		s.repair.WALRecords = len(recs)
		s.repair.WALTorn = rep.tornLen
		s.repair.WALNote = rep.note
		s.repair.HeaderRewritten = rep.headerBad
		if len(walData) >= headerLen {
			validOff = headerLen + rep.validLen
		}
		for _, r := range recs {
			s.index(r)
		}
	}
	s.goodOff = validOff

	if !opts.ReadOnly {
		f, err := opts.open(opts.walPath())
		if err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
		s.wal = f
		if len(walData) < headerLen || s.repair.HeaderRewritten {
			if _, err := f.WriteAt(fileHeader(), 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("runstore: writing WAL header: %w", err)
			}
		}
		if int64(len(walData)) != s.goodOff {
			if err := f.Truncate(s.goodOff); err != nil {
				f.Close()
				return nil, fmt.Errorf("runstore: truncating torn WAL tail: %w", err)
			}
		}
		if s.repair.Dirty() || len(walData) < headerLen {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("runstore: %w", err)
			}
		}
		s.lastSync = time.Now()
	}
	return s, nil
}

type loadReport struct {
	scanReport
	headerBad bool
}

// loadRecordFile validates a file image's header and scans its records. A
// damaged header is not fatal: the record region still carries its own
// CRCs, so the salvageable prefix is recovered and the header flagged for
// rewrite.
func loadRecordFile(data []byte) ([]*Record, loadReport) {
	var rep loadReport
	if err := checkHeader(data); err != nil {
		rep.headerBad = true
		rep.note = err.Error()
		if len(data) <= headerLen {
			rep.tornLen = int64(len(data))
			return nil, rep
		}
	}
	sr := scanRecords(data[min(headerLen, len(data)):])
	note := rep.note
	rep.scanReport = sr
	if note != "" {
		rep.note = note // header damage is the primary finding
	}
	return sr.recs, rep
}

// index inserts rec with last-write-wins per key, preserving the insertion
// position of the first write so Records() stays in append order.
func (s *Store) index(rec *Record) {
	if i, ok := s.byKey[rec.Key]; ok {
		s.recs[i] = rec
		return
	}
	s.byKey[rec.Key] = len(s.recs)
	s.recs = append(s.recs, rec)
}

// healTail restores the WAL to its last known-good length. A previous Put
// that crashed or failed mid-write (or any foreign append) leaves bytes
// past goodOff; appending after them would poison every later record on
// replay, so they are cut first.
func (s *Store) healTail() error {
	fi, err := s.wal.Stat()
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if fi.Size() != s.goodOff {
		if err := s.wal.Truncate(s.goodOff); err != nil {
			return fmt.Errorf("runstore: truncating torn tail before append: %w", err)
		}
	}
	return nil
}

func (s *Store) maybeSync() error {
	switch s.opts.Fsync {
	case FsyncAlways:
	case FsyncInterval:
		if time.Since(s.lastSync) < syncPeriod {
			return nil
		}
	case FsyncNever:
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	s.lastSync = time.Now()
	return nil
}

// Put appends one record to the WAL and indexes it. Re-putting an existing
// key re-verifies determinism: if both the stored and the new record carry
// simcheck digests and they differ, Put refuses with ErrDigestMismatch. A
// re-put that encodes identically to the stored record apart from
// AppendedAt writes nothing, so a warm sweep without resume leaves the WAL
// as it found it; a record that differs appends and wins on reload.
func (s *Store) Put(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if i, ok := s.byKey[rec.Key]; ok {
		old := s.recs[i]
		if old.Checked && rec.Checked && old.Digest != rec.Digest {
			return fmt.Errorf("%w: key %s stored digest %016x, new run %016x",
				ErrDigestMismatch, rec.Key.Short(), old.Digest, rec.Digest)
		}
		if sameRun(old, rec) {
			return nil
		}
	}
	if rec.AppendedAt == 0 {
		rec.AppendedAt = time.Now().UnixNano()
	}
	frame := appendFrame(nil, appendRecord(nil, rec))
	if err := s.healTail(); err != nil {
		return err
	}
	if _, err := s.wal.WriteAt(frame, s.goodOff); err != nil {
		// Best-effort: cut whatever partial frame landed. If this fails too
		// (the injected-crash case), the next append's healTail retries and
		// startup repair truncates it regardless.
		s.wal.Truncate(s.goodOff)
		return fmt.Errorf("runstore: append: %w", err)
	}
	s.goodOff += int64(len(frame))
	if err := s.maybeSync(); err != nil {
		return err
	}
	s.index(rec)
	return nil
}

// sameRun reports whether a and b encode to the same bytes apart from
// AppendedAt.
func sameRun(a, b *Record) bool {
	c := *b
	c.AppendedAt = a.AppendedAt
	return bytes.Equal(appendRecord(nil, a), appendRecord(nil, &c))
}

// Get returns the record stored under key.
func (s *Store) Get(key Key) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	return s.recs[i], true
}

// Len reports the number of distinct keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Records returns every record in insertion order.
func (s *Store) Records() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Repair returns what startup repair found.
func (s *Store) Repair() RepairReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repair
}

// Close flushes and releases the WAL handle. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	var err error
	if serr := s.wal.Sync(); serr != nil {
		err = serr
	}
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}
