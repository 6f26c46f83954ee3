package runstore

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
)

// randRecord builds a pseudo-random record from rng. Slices are nil when
// empty so decoded records compare DeepEqual to their sources.
func randRecord(rng *rand.Rand) *Record {
	rec := &Record{
		Name:        randName(rng, "scn"),
		Seed:        rng.Uint64(),
		AppendedAt:  1 + rng.Int63n(1e18),
		Horizon:     time.Duration(rng.Int63n(int64(time.Hour))),
		Digest:      rng.Uint64(),
		Checked:     rng.Intn(2) == 0,
		Utilization: rng.Float64(),
		FaultDrops:  rng.Int63n(1000),
		Reordered:   rng.Int63n(1000),
		Duplicated:  rng.Int63n(1000),
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		rec.Schemes = append(rec.Schemes, randName(rng, "cc"))
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		f := FlowRecord{
			PathRTT:   time.Duration(rng.Int63n(int64(time.Second))),
			Degraded:  rng.Int63n(50),
			NonFinite: rng.Int63n(50),
		}
		f.Stats.Name = randName(rng, "flow")
		f.Stats.SentPackets = rng.Int63n(1e6)
		f.Stats.AckedBytes = rng.Int63n(1e9)
		f.Stats.AvgRTT = time.Duration(rng.Int63n(int64(time.Second)))
		f.Stats.AvgThroughputBps = rng.Float64() * 1e9
		f.Stats.LossRate = rng.Float64()
		for j, m := 0, rng.Intn(4); j < m; j++ {
			f.Points = append(f.Points, netsim.SeriesPoint{
				T:             time.Duration(j) * time.Second,
				ThroughputBps: rng.Float64() * 1e8,
				SendRateBps:   rng.Float64() * 1e8,
				AvgRTT:        time.Duration(rng.Int63n(int64(time.Second))),
				LossRate:      rng.Float64(),
				Cwnd:          rng.Float64() * 1e5,
				PacingBps:     rng.Float64() * 1e8,
			})
		}
		rec.Flows = append(rec.Flows, f)
	}
	rec.Key = KeyOf(appendRecord(nil, rec)) // any distinct deterministic key
	return rec
}

func randName(rng *rand.Rand, prefix string) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := []byte(prefix + "-")
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		b = append(b, letters[rng.Intn(len(letters))])
	}
	return string(b)
}

func randRecords(seed int64, n int) []*Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*Record, 0, n)
	seen := map[Key]bool{}
	for len(recs) < n {
		r := randRecord(rng)
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		recs = append(recs, r)
	}
	return recs
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", opts.Dir, err)
	}
	return st
}

func putAll(t *testing.T, st *Store, recs []*Record) {
	t.Helper()
	for i, r := range recs {
		if err := st.Put(r); err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
	}
}

// requireSameRecords asserts got is bit-identical to want, in order: every
// record re-encodes to the same bytes as its reference.
func requireSameRecords(t *testing.T, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(appendRecord(nil, got[i]), appendRecord(nil, want[i])) {
			t.Fatalf("record %d differs after reload:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d not DeepEqual after reload:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestRoundTripPolicies is the store round-trip property: a random batch of
// records appended under each fsync policy reloads bit-identically and in
// insertion order.
func TestRoundTripPolicies(t *testing.T) {
	for _, pol := range []Policy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			recs := randRecords(int64(pol)*7+1, 12)
			dir := t.TempDir()
			st := mustOpen(t, Options{Dir: dir, Fsync: pol})
			putAll(t, st, recs)
			requireSameRecords(t, st.Records(), recs)
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			re := mustOpen(t, Options{Dir: dir, Fsync: pol})
			defer re.Close()
			if re.Repair().Dirty() {
				t.Fatalf("clean close reported dirty repair: %+v", re.Repair())
			}
			requireSameRecords(t, re.Records(), recs)
			for _, want := range recs {
				got, ok := re.Get(want.Key)
				if !ok {
					t.Fatalf("Get(%s) missing", want.Key.Short())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Get(%s) differs", want.Key.Short())
				}
			}
		})
	}
}

// TestLastWinsAndDigestMismatch: re-putting a key replaces the record in
// place; two checked records under the same key with different digests are a
// determinism violation and must be refused; and re-putting a record
// identical apart from AppendedAt writes nothing and keeps the first stamp.
func TestLastWinsAndDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	st := mustOpen(t, Options{Dir: dir})
	recs := randRecords(17, 2)
	old := recs[0]
	old.Checked, old.Digest = true, 0x1111
	putAll(t, st, recs)

	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	same := *old
	same.AppendedAt = old.AppendedAt + 1
	if err := st.Put(&same); err != nil {
		t.Fatalf("identical re-put refused: %v", err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("identical re-put changed the WAL: %d -> %d bytes", len(before), len(after))
	}
	if got, _ := st.Get(old.Key); got != old || got.AppendedAt != old.AppendedAt {
		t.Fatalf("identical re-put replaced the stored record: AppendedAt %d, want %d", got.AppendedAt, old.AppendedAt)
	}
	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	requireSameRecords(t, ro.Records(), recs)
	ro.Close()

	upd := *old
	upd.Utilization = 0.123
	if err := st.Put(&upd); err != nil {
		t.Fatalf("same-digest re-put refused: %v", err)
	}
	all := st.Records()
	if len(all) != 2 || all[0] != &upd {
		t.Fatalf("last-wins re-put did not replace in place: %v", all)
	}

	bad := *old
	bad.Digest = 0x2222
	err = st.Put(&bad)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("digest mismatch not refused: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The differing re-put survives the WAL and wins; reload dedups to 2.
	re := mustOpen(t, Options{Dir: dir})
	defer re.Close()
	requireSameRecords(t, re.Records(), []*Record{&upd, recs[1]})
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	recs := randRecords(23, 3)
	st := mustOpen(t, Options{Dir: dir})
	putAll(t, st, recs)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a read-only open must report the damage without
	// touching the file.
	walPath := filepath.Join(dir, "wal.log")
	if err := appendBytes(walPath, []byte("torn-tail-garbage")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	ro := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	defer ro.Close()
	requireSameRecords(t, ro.Records(), recs)
	if !ro.Repair().Dirty() {
		t.Fatal("read-only open missed the torn tail")
	}
	if err := ro.Put(recs[0]); err != ErrReadOnly {
		t.Fatalf("read-only Put = %v, want ErrReadOnly", err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("read-only open modified the WAL")
	}

	// A writable open repairs the same damage on disk.
	rw := mustOpen(t, Options{Dir: dir})
	defer rw.Close()
	if !rw.Repair().Dirty() {
		t.Fatal("writable open missed the torn tail")
	}
	check := mustOpen(t, Options{Dir: dir, ReadOnly: true})
	defer check.Close()
	if rep := check.Repair(); rep.Dirty() {
		t.Fatalf("store still damaged after writable reopen: %+v", rep)
	}
	requireSameRecords(t, check.Records(), recs)
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestPutAfterCloseAndPolicyParsing(t *testing.T) {
	st := mustOpen(t, Options{Dir: t.TempDir()})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(randRecords(1, 1)[0]); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	for _, c := range []struct {
		in   string
		want Policy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"never", FsyncNever}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}
