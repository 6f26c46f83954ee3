package runstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzWALDecode drives the codec's bijectivity and safety properties on
// arbitrary bytes:
//
//  1. decodeRecord never panics, whatever the input;
//  2. if a payload decodes, re-encoding the record reproduces the input
//     byte-for-byte (every record has exactly one valid encoding);
//  3. scanRecords never panics on an arbitrary framed region, and every
//     record it admits round-trips the same way.
//
// The checked-in corpus (testdata/fuzz/FuzzWALDecode) seeds full valid
// payloads, framed regions, and torn/corrupt variants; regenerate it with
// JURY_REGEN_CORPUS=1 go test -run TestRegenFuzzCorpus ./internal/runstore.
func FuzzWALDecode(f *testing.F) {
	for _, seed := range corpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := decodeRecord(data); err == nil {
			re := appendRecord(nil, rec)
			if !bytes.Equal(re, data) {
				t.Fatalf("decode/encode not bijective:\n in  %x\n out %x", data, re)
			}
		}
		rep := scanRecords(data)
		var off int64
		for _, rec := range rep.recs {
			frame := appendFrame(nil, appendRecord(nil, rec))
			if !bytes.Equal(frame, data[off:off+int64(len(frame))]) {
				t.Fatalf("scanned record at offset %d does not re-encode to its frame", off)
			}
			off += int64(len(frame))
		}
		if off != rep.validLen || rep.validLen+rep.tornLen != int64(len(data)) {
			t.Fatalf("scan accounting broken: validLen %d, tornLen %d, len %d", rep.validLen, rep.tornLen, len(data))
		}
	})
}

// corpusSeeds builds the deterministic seed inputs: valid payloads of
// escalating shape, valid framed regions, and damaged variants.
func corpusSeeds() [][]byte {
	recs := randRecords(97, 4)
	var seeds [][]byte
	// Bare payloads (what decodeRecord sees after the frame is stripped).
	for _, r := range recs {
		seeds = append(seeds, appendRecord(nil, r))
	}
	// An empty record and a minimal one.
	seeds = append(seeds, appendRecord(nil, &Record{}))
	// A multi-record framed region, a torn tail, and a flipped byte.
	var region []byte
	for _, r := range recs[:2] {
		region = appendFrame(region, appendRecord(nil, r))
	}
	seeds = append(seeds, region, region[:len(region)-3])
	mut := append([]byte(nil), region...)
	mut[len(mut)/2] ^= 0x20
	seeds = append(seeds, mut)
	// Structurally hostile payloads: bad version, huge counts, junk.
	seeds = append(seeds,
		[]byte{},
		[]byte{recVersion},
		[]byte{99, 1, 2, 3},
		append([]byte{recVersion}, bytes.Repeat([]byte{0xff}, 60)...),
	)
	return seeds
}

// TestRegenFuzzCorpus rewrites testdata/fuzz/FuzzWALDecode from corpusSeeds
// when JURY_REGEN_CORPUS=1; otherwise it checks that every seed-NN file holds
// exactly corpusSeeds()[NN], so the fuzz smoke in check.sh starts from
// records the current codec decodes. A record-format change fails here until
// the corpus is regenerated.
func TestRegenFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALDecode")
	seeds := corpusSeeds()
	if os.Getenv("JURY_REGEN_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			if err := os.WriteFile(filepath.Join(dir, seedFile(i)), corpusEntry(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d corpus entries to %s", len(seeds), dir)
		return
	}
	for i, seed := range seeds {
		data, err := os.ReadFile(filepath.Join(dir, seedFile(i)))
		if err != nil {
			t.Fatalf("fuzz corpus entry missing (regenerate with JURY_REGEN_CORPUS=1): %v", err)
		}
		if !bytes.Equal(data, corpusEntry(seed)) {
			t.Errorf("corpus entry %s differs from corpusSeeds()[%d] (regenerate with JURY_REGEN_CORPUS=1)", seedFile(i), i)
		}
	}
}

func seedFile(i int) string { return fmt.Sprintf("seed-%02d", i) }

// corpusEntry is the go fuzz corpus file encoding of one []byte input.
func corpusEntry(seed []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed))))
}
