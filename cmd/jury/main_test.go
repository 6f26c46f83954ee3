package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/runstore"
	"repro/internal/simcore"
)

// The CLI tests drive main in a child process: the test binary re-executes
// itself with childArg first and TestMain hands the rest of the arguments to
// main, so every case sees the real exit status, stdout and stderr.
const childArg = "jury-cli-child"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Args = append([]string{"jury"}, os.Args[2:]...)
		main() // always exits
	}
	os.Exit(m.Run())
}

type result struct {
	stdout, stderr string
	code           int
}

// child returns the command running `jury args...` in dir.
func child(t *testing.T, dir string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{childArg}, args...)...)
	cmd.Dir = dir
	return cmd
}

// jury runs `jury args...` in dir to completion.
func jury(t *testing.T, dir string, args ...string) result {
	t.Helper()
	cmd := child(t, dir, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("jury %s: %v", strings.Join(args, " "), err)
	}
	// A subcommand that never exits (say, a daemon that should have refused
	// to start) fails its case instead of hanging the suite.
	kill := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	kill.Stop()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		t.Fatalf("jury %s: %v", strings.Join(args, " "), err)
	}
	return result{stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()}
}

// TestSubcommandFlags pins every subcommand's flag set — name, type, default
// and usage of each flag — to the -h output of the binary it replaced
// (testdata/flags/<subcommand>.txt was recorded from `juryX [sub] -h` at the
// parent commit, minus the "Usage of" line).
func TestSubcommandFlags(t *testing.T) {
	for _, cmd := range []string{"sim", "sim faults", "exp", "train", "serve", "plot", "plot fairness"} {
		t.Run(strings.ReplaceAll(cmd, " ", "_"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "flags", strings.ReplaceAll(cmd, " ", "_")+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			r := jury(t, ".", append(strings.Fields(cmd), "-h")...)
			if r.code != 0 {
				t.Fatalf("exit %d, want 0", r.code)
			}
			if got := strings.TrimPrefix(r.stderr, "Usage of jury "+cmd+":\n"); got != string(want) {
				t.Errorf("flags of jury %s changed:\n%s\nwant:\n%s", cmd, r.stderr, want)
			}
		})
	}
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	narrow, err := json.Marshal(nn.NewMLP(simcore.NewRNG(1), []int{3, 4, 1}, []nn.Activation{nn.ReLU, nn.Tanh}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "narrow.json"), narrow, 0o644); err != nil {
		t.Fatal(err)
	}
	state := core.DefaultConfig().StateDim()
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string // substring
	}{
		{nil, 2, "usage: jury <subcommand>"},
		{[]string{"frob"}, 2, `unknown subcommand "frob"`},
		{[]string{"-h"}, 2, "usage: jury <subcommand>"},
		{[]string{"sim", "-nope"}, 2, "flag provided but not defined: -nope"},
		{[]string{"exp"}, 2, ""},
		{[]string{"exp", "-exp", "nope"}, 2, `unknown experiment "nope" (use -list)`},
		{[]string{"exp", "-resume"}, 2, "-resume requires -store DIR"},
		{[]string{"exp", "-store", dir, "-store-fsync", "sometimes"}, 2, "sometimes"},
		{[]string{"exp", "store", "ls"}, 2, "usage: jury exp store <ls|verify> DIR"},
		{[]string{"exp", "store", "frob", dir}, 2, `unknown store command "frob"`},
		{[]string{"train", "-eval", filepath.Join(dir, "missing.json")}, 1, "missing.json"},
		{[]string{"serve", "-checkpoint", "c.json"}, 2, "flag provided but not defined: -checkpoint"},
		{[]string{"serve", "-addr", "127.0.0.1:0", "-actor", "narrow.json"}, 1,
			fmt.Sprintf("actor narrow.json maps 3 inputs to 1 outputs; a Jury actor maps %d to 2", state)},
		{[]string{"plot"}, 2, "Usage of jury plot:"},
		{[]string{"plot", "-fig", "nope"}, 2, `unknown figure "nope"`},
		{[]string{"plot", "fairness"}, 2, "Usage of jury plot fairness:"},
	} {
		r := jury(t, dir, tc.args...)
		if r.code != tc.code || !strings.Contains(r.stderr, tc.stderr) {
			t.Errorf("jury %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				strings.Join(tc.args, " "), r.code, r.stderr, tc.code, tc.stderr)
		}
	}
	r := jury(t, dir)
	for _, c := range subcommands {
		if !strings.Contains(r.stderr, "  "+c.name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.name, r.stderr)
		}
	}
}

func TestExpList(t *testing.T) {
	r := jury(t, ".", "exp", "-list")
	lines := strings.Split(strings.TrimSuffix(r.stdout, "\n"), "\n")
	if r.code != 0 || lines[0] != "experiments:" || len(lines) != 1+27 {
		t.Fatalf("exit %d, %d lines:\n%s", r.code, len(lines), r.stdout)
	}
	// Without -exp or -list the catalog still prints, as a usage error.
	if none := jury(t, ".", "exp"); none.stdout != r.stdout || none.code != 2 {
		t.Errorf("bare exp: exit %d, stdout %q", none.code, none.stdout)
	}
}

// TestDispatch runs every subcommand end to end on a tiny input.
func TestDispatch(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	for _, tc := range []struct {
		args   []string
		stdout string // prefix
	}{
		{[]string{"exp", "-exp", "tab1"}, "Table 1 — DRL training environment:\n"},
		{[]string{"sim", "-scheme", "cubic,jury", "-rate", "20", "-duration", "3s", "-trace-out", trace}, "link: 20.0 Mbps, 30 ms RTT"},
		{[]string{"sim", "faults", "-schemes", "cubic", "-rate", "20", "-flows", "2", "-duration", "2s"}, "robustness table: 20.0 Mbps, 30 ms RTT, 2 flows"},
		{[]string{"plot", "-trace", trace, "-out", "trace.svg"}, "wrote trace.svg\n"},
		{[]string{"train", "-epochs", "1", "-actors", "1", "-steps", "16", "-updates", "1", "-out", "actor.json"}, "training Jury: 1 epochs x 1 actors x 16 steps"},
		{[]string{"train", "-eval", "actor.json", "-rate", "10", "-rtt", "25"}, "trained policy on 10 Mbps / 25ms:\n"},
	} {
		r := jury(t, dir, tc.args...)
		if r.code != 0 || !strings.HasPrefix(r.stdout, tc.stdout) {
			t.Errorf("jury %s: exit %d, stdout %q, stderr %q; want exit 0, stdout starting %q",
				strings.Join(tc.args, " "), r.code, r.stdout, r.stderr, tc.stdout)
		}
	}
	if svg, err := os.ReadFile(filepath.Join(dir, "trace.svg")); err != nil || !strings.HasPrefix(string(svg), "<svg") {
		t.Errorf("trace.svg: %v %.40q", err, svg)
	}
}

// TestSimCSVAndSeries: -csv writes every flow's series with the documented
// header and -series prints a per-second throughput block for each flow.
func TestSimCSVAndSeries(t *testing.T) {
	dir := t.TempDir()
	r := jury(t, dir, "sim", "-scheme", "cubic,jury", "-rate", "20", "-duration", "3s", "-csv", "out.csv", "-series")
	if r.code != 0 {
		t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
	}
	for _, want := range []string{
		"series written to out.csv\n",
		"\ncubic-0 throughput (Mbps) per second:\n  t=  1s ",
		"\njury-1 throughput (Mbps) per second:\n  t=  1s ",
	} {
		if !strings.Contains(r.stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, r.stdout)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "out.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := "flow,t_seconds,throughput_bps,send_rate_bps,avg_rtt_ms,loss_rate,cwnd,pacing_bps"; lines[0] != want {
		t.Fatalf("csv header %q, want %q", lines[0], want)
	}
	rows := map[string]int{}
	for _, l := range lines[1:] {
		rows[strings.SplitN(l, ",", 2)[0]]++
	}
	if len(rows) != 2 || rows["cubic-0"] == 0 || rows["jury-1"] == 0 {
		t.Fatalf("csv rows per flow = %v, want both cubic-0 and jury-1", rows)
	}
}

// TestSimPrintsTimewiseJain: on a staggered run `jury sim` prints Jain's
// index averaged over the instants with at least two active flows — the
// run's metrics.TimewiseJain — not the index of the flows' lifetime means,
// which counts the late starter's idle prefix as unfairness.
func TestSimPrintsTimewiseJain(t *testing.T) {
	r := jury(t, t.TempDir(), "sim", "-scheme", "cubic", "-flows", "2", "-stagger", "4s", "-rate", "20", "-duration", "10s")
	if r.code != 0 {
		t.Fatalf("exit %d, stderr %q", r.code, r.stderr)
	}
	s := exp.Scenario{Name: "jurysim", Rate: 20e6, OneWayDelay: oneWay(30), Horizon: 10 * time.Second, Seed: 1}
	s.BufferBytes = s.BufferBDP(1.5)
	s.Flows = []exp.FlowSpec{{Scheme: "cubic"}, {Scheme: "cubic", Start: 4 * time.Second}}
	res, err := exp.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("Jain index (time-averaged over instants with at least 2 active flows): %.3f\n", metrics.TimewiseJain(res.FlowSummaries))
	if !strings.Contains(r.stdout, want) {
		t.Errorf("stdout lacks %q:\n%s", want, r.stdout)
	}
	if strings.Contains(r.stdout, "lifetime means") {
		t.Errorf("stdout still prints the lifetime-mean index:\n%s", r.stdout)
	}
}

// TestServeDrainsOnSIGTERM starts the daemon on an ephemeral port and stops
// it the way an operator does.
func TestServeDrainsOnSIGTERM(t *testing.T) {
	cmd := child(t, t.TempDir(), "serve", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "jury serve: serving reference policy on 127.0.0.1:") {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("first stderr line %q", sc.Text())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for sc.Scan() {
		rest.WriteString(sc.Text() + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exited with %v; stderr:\n%s", err, rest.String())
	}
	if !strings.Contains(rest.String(), "served 0 decisions") {
		t.Errorf("no drain summary on stderr:\n%s", rest.String())
	}
}

// TestTrainEvalRejectsWrongWidths hands -eval networks that are not Jury
// actors: each must fail with both widths named, not panic mid-run or
// evaluate garbage.
func TestTrainEvalRejectsWrongWidths(t *testing.T) {
	dir := t.TempDir()
	state := core.DefaultConfig().StateDim()
	for _, tc := range []struct {
		name    string
		in, out int
	}{
		{"critic", state + 2, 1},
		{"wider", state + 4, 2},
		{"narrower", state - 4, 2},
	} {
		net := nn.NewMLP(simcore.NewRNG(1), []int{tc.in, 8, tc.out}, []nn.Activation{nn.ReLU, nn.Tanh})
		data, err := json.Marshal(net)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := jury(t, dir, "train", "-eval", path)
		want := fmt.Sprintf("maps %d inputs to %d outputs; a Jury actor maps %d to 2", tc.in, tc.out, state)
		if r.code != 1 || !strings.Contains(r.stderr, want) || strings.Contains(r.stderr, "panic") || r.stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.name, r.code, r.stdout, r.stderr, want)
		}
	}
}

func TestExpStore(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(runstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2025, 3, 30, 12, 0, 0, 0, time.UTC).UnixNano()
	for i, name := range []string{"fig8-rtt-fairness", "robustness-burst"} {
		rec := &runstore.Record{Key: runstore.KeyOf([]byte(name)), Scenario: name, Schemes: []string{"jury", "cubic"},
			Seed: uint64(i + 1), Digest: 0xabc, Checked: true, AppendedAt: at}
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ls := jury(t, dir, "exp", "store", "ls", dir)
	want := fmt.Sprintf(`key           scenario           schemes     seed  digest            checked  appended
------------  -----------------  ----------  ----  ----------------  -------  --------------------
%s  fig8-rtt-fairness  jury,cubic  1     0000000000000abc  true     2025-03-30T12:00:00Z
%s  robustness-burst   jury,cubic  2     0000000000000abc  true     2025-03-30T12:00:00Z
2 records
`, runstore.KeyOf([]byte("fig8-rtt-fairness")).Short(), runstore.KeyOf([]byte("robustness-burst")).Short())
	if got := trimLines(ls.stdout); ls.code != 0 || got != want {
		t.Errorf("store ls: exit %d\n%s\nwant:\n%s", ls.code, ls.stdout, want)
	}
	if v := jury(t, dir, "exp", "store", "verify", dir); v.code != 0 || !strings.HasSuffix(v.stdout, "clean\n") {
		t.Errorf("store verify: exit %d\n%s%s", v.code, v.stdout, v.stderr)
	}

	// A torn tail is reported as damage, with exit 1.
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if v := jury(t, dir, "exp", "store", "verify", dir); v.code != 1 || !strings.Contains(v.stderr, "is damaged") {
		t.Errorf("damaged store verify: exit %d\n%s%s", v.code, v.stdout, v.stderr)
	}
}

// trimLines drops the padding FormatTable leaves at the end of each line.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	return strings.Join(lines, "\n")
}

func TestPlotFairness(t *testing.T) {
	dir := t.TempDir()
	fixture, err := filepath.Abs(filepath.Join("testdata", "fairness.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	r := jury(t, dir, "plot", "fairness", "-in", fixture)
	if r.code != 0 || r.stdout != "wrote fairness.svg\n" {
		t.Fatalf("exit %d, stdout %q, stderr %q", r.code, r.stdout, r.stderr)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fairness.svg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "windowed Jain", "cumulative Jain"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("fairness.svg lacks %q", want)
		}
	}

	// The same snapshots as a one-line /fairness page, an indented one and
	// an SSE capture chart identically; only the title's path differs.
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	snaps := strings.Split(strings.TrimSpace(string(data)), "\n")
	page := `{"latest":` + snaps[len(snaps)-1] + `,"recent":[` + strings.Join(snaps, ",") + "]}\n"
	for name, capture := range map[string]string{
		"page.json":     page,
		"indented.json": strings.ReplaceAll(page, ",", ",\n  "),
		"stream.sse":    "data: " + strings.Join(snaps, "\n\ndata: ") + "\n\n",
	} {
		in := filepath.Join(dir, name)
		if err := os.WriteFile(in, []byte(capture), 0o644); err != nil {
			t.Fatal(err)
		}
		r := jury(t, dir, "plot", "fairness", "-in", in, "-out", name+".svg")
		got, err := os.ReadFile(filepath.Join(dir, name+".svg"))
		if r.code != 0 || err != nil || strings.ReplaceAll(string(got), in, fixture) != string(svg) {
			t.Errorf("%s: exit %d, stderr %q, read %v; chart differs from the JSONL capture's", name, r.code, r.stderr, err)
		}
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not json\n{{{\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r = jury(t, dir, "plot", "fairness", "-in", bad, "-out", "bad.svg")
	if r.code != 1 || !strings.Contains(r.stderr, "not a /fairness page, SSE capture, or snapshot JSONL") {
		t.Errorf("bad capture: exit %d, stderr %q", r.code, r.stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.svg")); !os.IsNotExist(err) {
		t.Errorf("bad capture still wrote an SVG (stat: %v)", err)
	}
}

func TestOneWay(t *testing.T) {
	for _, tc := range []struct {
		rttMS float64
		want  time.Duration
	}{
		{25, 12500 * time.Microsecond},
		{0.5, 250 * time.Microsecond},
		{1, 500 * time.Microsecond},
		{30.3, 15150 * time.Microsecond},
	} {
		if got := oneWay(tc.rttMS); got != tc.want {
			t.Errorf("oneWay(%v) = %v, want %v", tc.rttMS, got, tc.want)
		}
	}
	// Even integers keep the value the old integer conversion gave.
	for ms := 0; ms <= 10000; ms += 2 {
		if got, old := oneWay(float64(ms)), time.Duration(ms/2)*time.Millisecond; got != old {
			t.Fatalf("oneWay(%d) = %v, want %v", ms, got, old)
		}
	}
}
