// Command bench is this repository's benchmark: four named workloads, the
// end-to-end metrics a user of the system waits for, and a per-layer ledger
// measured from outside the layers. See README.md in this directory.
//
//	go run ./bench -seed 1                 # every workload, untraced then traced; JSON report on stdout
//	go run ./bench -workload serve_socket  # iterate on one workload
//	go run ./bench -compare A.json B.json  # gate B against A
//
// With -trace 0|1 it runs that one pass of one workload in this process and
// ends its output with the one-line result BENCHMARK.json's driver reads;
// the all-workload mode runs exactly that, once per pass, in fresh children
// of the same binary so heap and GC state never leak between workloads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", 20, "budget of one workload's untraced reps; at least 3 reps run regardless")
		reps         = flag.Int("reps", 0, "run exactly this many untraced reps instead of filling -seconds")
		trace        = flag.String("trace", "", "0 or 1: run one pass (untraced / traced) of -workload in this process and print the driver's result line")
		noTrace      = flag.Bool("no-trace", false, "skip the traced pass")
		traceOut     = flag.String("trace-out", "", "append the traced pass's spans to this file as JSONL")
		out          = flag.String("out", "", "also write the JSON result to this file")
		smoke        = flag.Bool("smoke", false, "run every workload at about 1/50 size (checks the harness, not the system)")
		compare      = flag.Bool("compare", false, "compare two saved reports: -compare A.json B.json")
		noop         = flag.Bool("noop", false, "exit at once (the process-start probe runs this)")
	)
	flag.Parse()
	if *noop {
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf(2, "usage: bench -compare A.json B.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatalf(2, "unexpected arguments %q", flag.Args())
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatalf(2, "GOMAXPROCS=%d exceeds the %d processors present: timings would measure the scheduler", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	self, err := os.Executable()
	if err != nil {
		fatalf(1, "cannot locate this binary: %v", err)
	}
	c := &ctx{seed: *seed, smoke: *smoke, budget: time.Duration(*seconds) * time.Second, reps: *reps, self: self}
	if c.smoke && c.reps == 0 {
		c.reps = minReps // a smoke rep is far shorter than any budget
	}

	if *trace != "" {
		w, ok := findWorkload(*workloadName)
		if !ok || (*trace != "0" && *trace != "1") {
			fatalf(2, "-trace takes 0 or 1 and needs -workload, one of %s", workloadNames())
		}
		if err := runPass(w, c, *trace == "1", *out, *traceOut); err != nil {
			fatalf(1, "%v", err)
		}
		return
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatalf(2, "unknown workload %q, want one of %s", *workloadName, workloadNames())
		}
		selected = []workload{w}
	}
	full, err := runAll(selected, c, *seconds, !*noTrace, *traceOut)
	if err != nil {
		fatalf(1, "%v", err)
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		fatalf(1, "%v", err)
	}
	fmt.Printf("%s\n", data)
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf(1, "%v", err)
		}
	}
	for _, w := range full.Workloads {
		if w.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// driverLine is the last line of a single pass's output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runPass runs one pass of one workload in this process, prints what it
// measured, and ends with the driver's line: every end-to-end metric for
// the untraced pass, every per-layer metric for the traced one (0 for the
// layers this workload does not run through).
func runPass(w workload, c *ctx, traced bool, outPath, tracePath string) error {
	var res *result
	var err error
	table := endToEnd
	if traced {
		var tr *tracer
		if res, tr, err = runTraced(w, c); err != nil {
			return err
		}
		if tracePath != "" {
			if err := tr.appendJSONL(tracePath, w.name); err != nil {
				return err
			}
		}
		table = perLayer
	} else if res, err = runUntraced(w, c); err != nil {
		return err
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Printf("%s seed=%d traced=%v reps=%d fingerprint=%s attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Traced, res.Reps, res.Fingerprint, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Printf("  %-32s %14.6g %-6s min %.6g max %.6g n=%d\n", name, s.Value, s.Unit, s.Min, s.Max, s.N)
	}

	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range table {
		s, ok := res.Metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("%s did not measure %s", w.name, d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: s.Value, Unit: d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

// provenance says where and when a report was measured.
type provenance struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Kernel     string    `json:"kernel"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Reps       int       `json:"reps_flag"` // 0 = as many as fit in Seconds, at least 3
	Smoke      bool      `json:"smoke"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
}

// workloadReport joins a workload's two passes. EndToEnd holds what the
// untraced pass measured of the metrics that are gated (plus p99.9 as
// information); PerLayer everything else, from the traced pass.
type workloadReport struct {
	Reps        int               `json:"reps"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	EndToEnd    map[string]sample `json:"end_to_end"`
	PerLayer    map[string]sample `json:"per_layer,omitempty"`
}

type report struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// isEndToEnd reports whether a metric belongs in a report's end_to_end
// section for the given workload.
func isEndToEnd(metric, workload string) bool {
	if metric == "decision_p999_us" {
		return workload == wlServeSocket
	}
	for _, g := range gates {
		if g.Metric == metric && (g.Workloads == nil || slices.Contains(g.Workloads, workload)) {
			return true
		}
	}
	return false
}

// runAll runs each workload's passes one at a time, each in a fresh child
// of this binary, and joins their results.
func runAll(selected []workload, c *ctx, seconds int, traced bool, tracePath string) (*report, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if tracePath != "" {
		// Children append; start from an empty file.
		if err := os.WriteFile(tracePath, nil, 0o644); err != nil {
			return nil, err
		}
	}
	full := &report{
		Provenance: provenance{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Kernel: kernelRelease(), Commit: gitCommit(), Seed: c.seed, Seconds: seconds, Reps: c.reps,
			Smoke: c.smoke, Start: time.Now().UTC(),
		},
		Workloads: map[string]*workloadReport{},
	}
	child := func(w workload, pass string) (*result, error) {
		resPath := filepath.Join(dir, w.name+"."+pass+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(seconds),
			"-reps", fmt.Sprint(c.reps), "-trace", pass, "-out", resPath}
		if c.smoke {
			args = append(args, "-smoke")
		}
		if tracePath != "" {
			args = append(args, "-trace-out", tracePath)
		}
		fmt.Fprintf(os.Stderr, "bench: %s, trace %s ...\n", w.name, pass)
		cmd := exec.Command(c.self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s pass %s: %w\n%s", w.name, pass, err, stdout.String())
		}
		data, err := os.ReadFile(resPath)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s pass %s: %w", w.name, pass, err)
		}
		return &res, nil
	}
	for _, w := range selected {
		res, err := child(w, "0")
		if err != nil {
			return nil, err
		}
		wr := &workloadReport{
			Reps: res.Reps, Attempted: res.Attempted, Failed: res.Failed, Failures: res.Failures,
			Fingerprint: res.Fingerprint, EndToEnd: map[string]sample{},
		}
		for name, s := range res.Metrics {
			if isEndToEnd(name, w.name) {
				wr.EndToEnd[name] = s
			}
		}
		if traced {
			tres, err := child(w, "1")
			if err != nil {
				return nil, err
			}
			wr.Attempted += tres.Attempted
			wr.Failed += tres.Failed
			wr.Failures = append(wr.Failures, tres.Failures...)
			if tres.Fingerprint != res.Fingerprint {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("traced pass fingerprint %s differs from untraced %s", tres.Fingerprint, res.Fingerprint))
			}
			wr.PerLayer = map[string]sample{}
			for name, s := range tres.Metrics {
				if _, isLayer := lookupDef(name); isLayer && !isEndToEnd(name, w.name) && name != "wall_s" {
					wr.PerLayer[name] = s
				}
			}
			wr.EndToEnd["fail_ratio"] = sample{Value: float64(wr.Failed) / float64(wr.Attempted), Unit: "ratio", N: 1}
		}
		full.Workloads[w.name] = wr
	}
	full.Provenance.End = time.Now().UTC()
	return full, nil
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// gitCommit names the commit being measured, when the working directory is
// a git checkout with git on the path.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "-dirty"
	}
	return commit
}
