// Crash and corruption harness. failingFile simulates a power cut by dying
// after a byte budget; the matrix tests replay that cut at EVERY byte offset
// of the write stream and assert the reopened store always yields an intact
// prefix of the reference records, never a corrupted or reordered view, and
// that the interrupted run completes after resume. The bit-flip sweep proves
// the complementary property: any single flipped bit on disk is detected.
package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// crashState is shared across every file a store opens, so one budget
// covers the whole write stream like a single power rail.
type crashState struct {
	budget int64 // bytes that may still be written
	dead   bool  // first failure latches: a crashed machine stays crashed
}

type failingFile struct {
	f  *os.File
	st *crashState
}

func failingOpen(st *crashState) func(path string) (file, error) {
	return func(path string) (file, error) {
		if st.dead {
			return nil, os.ErrClosed
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		return &failingFile{f: f, st: st}, nil
	}
}

func (f *failingFile) WriteAt(p []byte, off int64) (int, error) {
	if f.st.dead {
		return 0, os.ErrClosed
	}
	if int64(len(p)) > f.st.budget {
		n := int(f.st.budget)
		f.st.budget = 0
		f.st.dead = true
		if n > 0 {
			f.f.WriteAt(p[:n], off) // the torn partial write of the crash
		}
		return n, os.ErrClosed
	}
	f.st.budget -= int64(len(p))
	return f.f.WriteAt(p, off)
}

func (f *failingFile) Truncate(size int64) error {
	if f.st.dead {
		return os.ErrClosed
	}
	return f.f.Truncate(size)
}

func (f *failingFile) Sync() error {
	if f.st.dead {
		return os.ErrClosed
	}
	return f.f.Sync()
}

func (f *failingFile) Stat() (os.FileInfo, error) {
	if f.st.dead {
		return nil, os.ErrClosed
	}
	return f.f.Stat()
}

func (f *failingFile) Close() error { return f.f.Close() }

// crashRecords keeps the matrix sweeps fast: small records, every field
// populated, distinct keys.
func crashRecords(t *testing.T) []*Record {
	t.Helper()
	recs := randRecords(41, 4)
	for _, r := range recs {
		for i := range r.Flows {
			r.Flows[i].Points = nil // keep frames small: the sweep is byte-granular
		}
		r.Key = KeyOf(appendRecord(nil, r))
	}
	return recs
}

// writeStreamLen computes the total bytes a fresh store writes while
// appending recs: header + every frame.
func writeStreamLen(recs []*Record) int64 {
	n := int64(headerLen)
	for _, r := range recs {
		n += int64(len(appendFrame(nil, appendRecord(nil, r))))
	}
	return n
}

// TestCrashMatrix kills the write stream after every possible byte count,
// under every fsync policy, and proves crash-consistency: reopen always
// yields an intact prefix of the reference batch, and appending the missing
// records then yields exactly the full batch.
func TestCrashMatrix(t *testing.T) {
	recs := crashRecords(t)
	total := writeStreamLen(recs)
	if total > 4096 {
		t.Fatalf("crash records too big (%d bytes); the byte-granular sweep would be slow", total)
	}
	for _, pol := range []Policy{FsyncAlways, FsyncInterval, FsyncNever} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			for budget := int64(0); budget < total; budget++ {
				dir := t.TempDir()
				st := &crashState{budget: budget}
				cs, err := Open(Options{Dir: dir, Fsync: pol, open: failingOpen(st)})
				if err == nil {
					for _, r := range recs {
						if err := cs.Put(r); err != nil {
							break // crashed mid-append; everything after is lost
						}
					}
					cs.Close() // best-effort, may fail on the dead file
				} else if !st.dead {
					t.Fatalf("budget %d: Open failed for a non-crash reason: %v", budget, err)
				}

				re := mustOpen(t, Options{Dir: dir, Fsync: pol})
				got := re.Records()
				if len(got) > len(recs) {
					t.Fatalf("budget %d: %d records from a %d-record run", budget, len(got), len(recs))
				}
				requireSameRecords(t, got, recs[:len(got)])

				// Resume: appending the lost suffix must complete the batch.
				putAll(t, re, recs[len(got):])
				requireSameRecords(t, re.Records(), recs)
				if err := re.Close(); err != nil {
					t.Fatalf("budget %d: close after resume: %v", budget, err)
				}
				fin := mustOpen(t, Options{Dir: dir, Fsync: pol})
				requireSameRecords(t, fin.Records(), recs)
				fin.Close()
			}
		})
	}
}

// TestBitFlipSweep flips a bit at every byte offset of the WAL and proves
// total corruption coverage: the reopened store never serves a record that
// differs from its reference, and every flip is either reported by repair
// or by the salvage note.
// In -short mode the flipped bit rotates with the offset (every byte and
// every bit position still covered); the full run tries all 8 bits per byte.
func TestBitFlipSweep(t *testing.T) {
	recs := crashRecords(t)
	const name = "wal.log"
	srcDir := t.TempDir()
	src := mustOpen(t, Options{Dir: srcDir})
	putAll(t, src, recs)
	src.Close()
	byKey := map[Key]*Record{}
	for _, r := range recs {
		byKey[r.Key] = r
	}

	t.Run(name, func(t *testing.T) {
		t.Parallel()
		pristine, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(pristine); off++ {
			bits := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if testing.Short() {
				bits = bits[off%8 : off%8+1]
			}
			for _, bit := range bits {
				dir := t.TempDir()
				mut := append([]byte(nil), pristine...)
				mut[off] ^= 1 << bit
				if err := os.WriteFile(filepath.Join(dir, name), mut, 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatalf("offset %d bit %d: Open: %v", off, bit, err)
				}
				rep := st.Repair()
				got := st.Records()
				for _, g := range got {
					ref, ok := byKey[g.Key]
					if !ok || !reflect.DeepEqual(g, ref) {
						t.Fatalf("offset %d bit %d: corrupted record served: %+v", off, bit, g)
					}
				}
				detected := rep.Dirty() || rep.WALNote != "" ||
					len(got) < len(recs)
				if !detected {
					t.Fatalf("offset %d bit %d: flip neither detected nor dropped (served %d records)", off, bit, len(got))
				}
				// Prefix property: the scan stops at the first damaged
				// frame, so the served records are a prefix of the batch.
				for i, g := range got {
					if !bytes.Equal(appendRecord(nil, g), appendRecord(nil, recs[i])) {
						t.Fatalf("offset %d bit %d: served records are not an in-order prefix", off, bit)
					}
				}
				st.Close()
			}
		}
	})
}
