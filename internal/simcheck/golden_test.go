package simcheck

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/traces"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt with the current digests")

// goldenScenarios are the canonical runs whose digests are pinned in
// testdata/golden.txt, two per scenario: Checker.Digest (event stream plus
// outputs) and the outputs-only fold. A Digest change alone means the
// simulation now schedules differently; an output change means it computes
// something different. Either is an intentional change (rerun with -update
// and explain it in the commit) or accidental cross-PR nondeterminism —
// which is exactly what this test exists to catch. A change meant to touch
// only the event stream repins the first column and leaves the second.
var goldenScenarios = []struct {
	name string
	run  func(t *testing.T) *Checker
}{
	{"cubic-dumbbell", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(41, 24e6, 15*time.Millisecond, bdpBytes(24e6, 30*time.Millisecond), 0, 2,
			func(int) cc.Algorithm { return cubic.New() })
		n.Run(8 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
	{"jury-lossy-dumbbell", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(43, 30e6, 10*time.Millisecond, bdpBytes(30e6, 20*time.Millisecond)*3/2, 0.003, 2,
			func(i int) cc.Algorithm { return core.NewDefault(uint64(i) + 3) })
		n.Run(8 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
	// Two paced Jury flows and a Cubic flow on a 100 Mbps, 30 ms RTT
	// dumbbell: a 1500 B packet serializes in exactly 120 µs and the RTT is
	// 250 of them, so ACK-triggered arrivals land on departure instants
	// every round trip and the link's equal-time ordering is exercised
	// constantly.
	{"tie-grid", func(t *testing.T) *Checker {
		n, ck := buildDumbbell(47, 100e6, 15*time.Millisecond, bdpBytes(100e6, 30*time.Millisecond), 0, 3,
			func(i int) cc.Algorithm {
				if i < 2 {
					return core.NewDefault(uint64(i) + 5)
				}
				return cubic.New()
			})
		n.Run(10 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
	// A two-link path: duplicates, reordering and delay spikes on the first
	// link, a step-trace bottleneck second, and one flow with extra one-way
	// delay outside both links.
	{"two-hop-faults", func(t *testing.T) *Checker {
		n := netsim.New(netsim.Config{Seed: 53})
		edge := n.AddLink(netsim.LinkConfig{
			Rate: 60e6, Delay: 4 * time.Millisecond, BufferBytes: bdpBytes(60e6, 20*time.Millisecond),
			Faults: &faults.Config{
				DupProb:     0.02,
				ReorderProb: 0.02, ReorderMaxDelay: 6 * time.Millisecond,
				JitterProb: 0.03, JitterMax: 5 * time.Millisecond,
			},
		})
		btl := n.AddLink(netsim.LinkConfig{
			Trace: traces.NewStep([]traces.Point{
				{At: 0, Rate: 24e6}, {At: 3 * time.Second, Rate: 12e6}, {At: 6 * time.Second, Rate: 36e6},
			}),
			Delay: 8 * time.Millisecond, BufferBytes: bdpBytes(24e6, 40*time.Millisecond),
		})
		path := []*netsim.Link{edge, btl}
		n.AddFlow(netsim.FlowConfig{Name: "f0", Path: path, ExtraOneWay: 7 * time.Millisecond,
			Alg: core.NewDefault(11)})
		n.AddFlow(netsim.FlowConfig{Name: "f1", Path: path, Alg: cubic.New()})
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		ck := Attach(n)
		n.Run(9 * time.Second)
		if vs := ck.Finish(); len(vs) > 0 {
			t.Fatalf("violations: %v", vs)
		}
		return ck
	}},
}

const goldenPath = "testdata/golden.txt"

// goldenDigests is one golden line: Checker.Digest and the outputs-only fold.
type goldenDigests struct{ digest, outputs uint64 }

func readGolden(t *testing.T) map[string]goldenDigests {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	defer f.Close()
	out := map[string]goldenDigests{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		var v [2]uint64
		for i, field := range fields[1:] {
			var err error
			if v[i], err = strconv.ParseUint(strings.TrimPrefix(field, "0x"), 16, 64); err != nil {
				t.Fatalf("malformed golden digest %q: %v", field, err)
			}
		}
		out[fields[0]] = goldenDigests{v[0], v[1]}
	}
	return out
}

// TestGoldenEventStreamDigests pins the digests of the canonical scenarios
// across PRs.
func TestGoldenEventStreamDigests(t *testing.T) {
	digests := make(map[string]goldenDigests, len(goldenScenarios))
	for _, gs := range goldenScenarios {
		ck := gs.run(t)
		digests[gs.name] = goldenDigests{ck.Digest(), ck.outputDigest()}
		t.Logf("%s: stream hash %#016x over %d events", gs.name, ck.StreamHash(), ck.Events())
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Golden digests: scenario, simcheck.Checker.Digest (event stream and\n")
		b.WriteString("# outputs), and the outputs-only fold (flow and link counters and series).\n")
		b.WriteString("# Regenerate with: go test ./internal/simcheck -run TestGolden -update\n")
		for _, gs := range goldenScenarios {
			d := digests[gs.name]
			fmt.Fprintf(&b, "%s 0x%016x 0x%016x\n", gs.name, d.digest, d.outputs)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %v", digests)
		return
	}
	want := readGolden(t)
	for _, gs := range goldenScenarios {
		w, ok := want[gs.name]
		if !ok {
			t.Errorf("scenario %s missing from %s (run -update)", gs.name, goldenPath)
			continue
		}
		got := digests[gs.name]
		if got.outputs != w.outputs {
			t.Errorf("scenario %s output digest %#016x != golden %#016x — the simulation computes "+
				"different flow or link outputs than when the golden file was recorded (intentional "+
				"change? rerun with -update; otherwise hunt the nondeterminism)", gs.name, got.outputs, w.outputs)
		}
		if got.digest != w.digest {
			t.Errorf("scenario %s digest %#016x != golden %#016x — the simulation executes "+
				"differently than when the golden file was recorded (intentional change? rerun "+
				"with -update; otherwise hunt the nondeterminism)", gs.name, got.digest, w.digest)
		}
	}
}
