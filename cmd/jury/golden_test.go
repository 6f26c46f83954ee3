package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
)

// goldenShort are the ids whose exp run and plot each take well under a
// second; -short runs only these.
var goldenShort = map[string]bool{"tab1": true, "tab2": true, "fig4": true, "fig7a": true, "fig11a": true, "fig12": true}

// completedLine is the wall-clock line `jury exp` ends its output with.
var completedLine = regexp.MustCompile(`\[\S+ completed in [^\]]*\]\n$`)

// TestGoldenExpOutputs pins what `jury exp -exp <id>` prints at seed 1 and
// reduced scale for every experiment but fig14 (its rows are wall-clock
// timings), minus the trailing "[<id> completed in …]" line. Each golden is
// testdata/golden/exp/<id>.txt; to re-record one after an intended change:
//
//	go run ./cmd/jury exp -exp <id> | sed '$d' > cmd/jury/testdata/golden/exp/<id>.txt
func TestGoldenExpOutputs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "exp", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, f := range files {
		have = append(have, strings.TrimSuffix(filepath.Base(f), ".txt"))
	}
	for _, f := range exp.Figures {
		if f.ID != "fig14" {
			want = append(want, f.ID)
		}
	}
	sort.Strings(want)
	if strings.Join(have, " ") != strings.Join(want, " ") {
		t.Fatalf("goldens for %v, want one per experiment but fig14: %v", have, want)
	}
	for i, id := range have {
		golden := files[i]
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !goldenShort[id] {
				t.Skip("seconds, not milliseconds")
			}
			t.Parallel()
			wantOut, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			r := jury(t, t.TempDir(), "exp", "-exp", id, "-seed", "1")
			if r.code != 0 {
				t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
			}
			got := completedLine.ReplaceAllString(r.stdout, "")
			if got == r.stdout {
				t.Fatalf("output does not end with the completed-in line:\n%s", r.stdout)
			}
			if got != string(wantOut) {
				t.Errorf("jury exp -exp %s printed:\n%s\nwant (%s):\n%s", id, got, golden, wantOut)
			}
		})
	}
}

// TestGoldenPlotHashes pins an FNV-1a hash of the SVG `jury plot -fig <id>`
// writes at seed 1 and reduced scale for every chart of the registry. Each
// line of testdata/golden/plot.txt is "<id> <hash>", in registry order; a
// failure prints the line that would pass.
func TestGoldenPlotHashes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "plot.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var ids, plots []string
	for _, f := range exp.Figures {
		plots = append(plots, f.Plots...)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines {
		id, _, _ := strings.Cut(line, " ")
		ids = append(ids, id)
	}
	if strings.Join(ids, " ") != strings.Join(plots, " ") {
		t.Fatalf("plot goldens for %v, want one per registry plot in order: %v", ids, plots)
	}
	for _, line := range lines {
		id, want, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !goldenShort[id] {
				t.Skip("seconds, not milliseconds")
			}
			t.Parallel()
			dir := t.TempDir()
			r := jury(t, dir, "plot", "-fig", id, "-seed", "1", "-out", "out.svg")
			if r.code != 0 {
				t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
			}
			svg, err := os.ReadFile(filepath.Join(dir, "out.svg"))
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(svg)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
				t.Errorf("SVG hash changed; the passing golden line is %q", id+" "+got)
			}
		})
	}
}
