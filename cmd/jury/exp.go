package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runstore"
)

var experiments = []struct {
	id   string
	desc string
	run  func(full bool, seed uint64) error
}{
	{"tab1", "Table 1: training environment ranges", printRows("Table 1 — DRL training environment:", exp.Tab1Rows)},
	{"tab2", "Table 2: training hyperparameters", printRows("Table 2 — training hyperparameters:", exp.Tab2Rows)},
	{"tab3", "Table 3: long/short flows and heterogeneous RTTs at scale", runTab3},
	{"fig1", "Fig. 1: Astraea fairness fails outside its training region", runFig1},
	{"fig4", "Fig. 4: signal phases vs. increasing sending rate", runFig4},
	{"fig5", "Fig. 5: throughput response to a +10% probe vs. occupancy", runFig5},
	{"fig6", "Fig. 6: average Jain index across random environments", runFig6},
	{"fig7", "Fig. 7: all eight convergence panels (parallel)", runFig7All},
	{"fig7a", "Fig. 7(a): 3 Jury flows, 50 Mbps / 30 ms", runFig7("a")},
	{"fig7b", "Fig. 7(b): 3 Jury flows, 350 Mbps / 30 ms", runFig7("b")},
	{"fig7c", "Fig. 7(c): 3 Jury flows, 350 Mbps / 150 ms", runFig7("c")},
	{"fig7d", "Fig. 7(d): 3 Jury flows, 350 Mbps / 150 ms / 0.2% loss", runFig7("d")},
	{"fig7e", "Fig. 7(e): Astraea, 350 Mbps / 30 ms", runFig7("e")},
	{"fig7f", "Fig. 7(f): Vivace, 350 Mbps / 150 ms", runFig7("f")},
	{"fig7g", "Fig. 7(g): BBR, 350 Mbps / 150 ms / 0.2% loss", runFig7("g")},
	{"fig7h", "Fig. 7(h): Orca, 350 Mbps / 150 ms / 0.2% loss", runFig7("h")},
	{"fig8", "Fig. 8: RTT fairness (5 Jury flows, 70-210 ms)", runFig8},
	{"fig9", "Fig. 9: friendliness vs. Cubic across RTTs", runFig9},
	{"fig10", "Fig. 10: utilization and queuing-delay sweeps", runFig10},
	{"fig11a", "Fig. 11(a): satellite link", runFig11a},
	{"fig11b", "Fig. 11(b): 10 Gbps link", runFig11b},
	{"fig12", "Fig. 12: LTE responsiveness", runFig12},
	{"fig13a", "Fig. 13(a): intra-continental emulated WAN", runFig13(true)},
	{"fig13b", "Fig. 13(b): inter-continental emulated WAN", runFig13(false)},
	{"fig14", "Fig. 14: CPU overhead per scheme", runFig14},
	{"ablation", "Ablations: post-processing / exploration / filtering removed", runAblation},
	{"multibtl", "Multi-bottleneck (parking lot) fairness (§5.1)", runMultiBottleneck},
}

// figScale is the stagger and lifetime exp and plot run a throughput-
// dynamics figure with unless -full; under -full the options keep their
// zero values, which select the paper's protocol.
type figScale struct{ stagger, lifetime time.Duration }

var (
	fig1Scale = figScale{20 * time.Second, 60 * time.Second}
	fig7Scale = figScale{20 * time.Second, 60 * time.Second}
	fig8Scale = figScale{20 * time.Second, 100 * time.Second}
)

func (s figScale) at(full bool) (stagger, lifetime time.Duration) {
	if full {
		return 0, 0
	}
	return s.stagger, s.lifetime
}

// runExp is `jury exp`: it reproduces the paper's tables and figures by id
// and prints the corresponding rows. -list shows every experiment.
//
//	jury exp -exp fig6                 # scaled-down fairness comparison
//	jury exp -exp fig6 -full           # the paper's full 60-run protocol
//	jury exp -exp fig7a                # Jury convergence, 50 Mbps panel
//	jury exp -exp tab3
//
// `jury exp store <ls|verify> DIR` inspects a run store (runStore).
func runExp(args []string) error {
	if len(args) > 0 && args[0] == "store" {
		return runStore(args[1:])
	}
	fs := flag.NewFlagSet("jury exp", flag.ExitOnError)
	var (
		id   = fs.String("exp", "", "experiment id (see -list)")
		full = fs.Bool("full", false, "run at the paper's full scale (slow on one CPU)")
		seed = fs.Uint64("seed", 1, "random seed")
		list = fs.Bool("list", false, "list experiments")

		storeDir   = fs.String("store", "", "record completed runs in a WAL-backed store at this directory")
		resume     = fs.Bool("resume", false, "serve runs already present in -store without re-simulating")
		storeFsync = fs.String("store-fsync", "interval", `store durability: "always", "interval", or "never"`)
	)
	of := newObsFlags(fs, obsAttach, true)
	hub, err := of.parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()
	if *resume && *storeDir == "" {
		return usageError("-resume requires -store DIR")
	}
	if *storeDir != "" {
		pol, err := runstore.ParsePolicy(*storeFsync)
		if err != nil {
			return usageError(err.Error())
		}
		st, err := runstore.Open(runstore.Options{Dir: *storeDir, Fsync: pol})
		if err != nil {
			return err
		}
		if rep := st.Repair(); rep.Dirty() {
			fmt.Fprintf(os.Stderr, "store: repaired on open (wal: %q, %d bytes dropped)\n",
				rep.WALNote, rep.WALTorn)
		}
		fmt.Fprintf(os.Stderr, "store: %d records at %s (resume=%v)\n", st.Len(), *storeDir, *resume)
		exp.AttachStore(st, *resume)
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "jury exp: store close:", err)
			}
		}()
	}
	if *list || *id == "" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-7s %s\n", e.id, e.desc)
		}
		if *id == "" && !*list {
			return usageError("")
		}
		return nil
	}
	for _, e := range experiments {
		if e.id == *id {
			start := time.Now()
			if err := e.run(*full, *seed); err != nil {
				return err
			}
			fmt.Printf("\n[%s completed in %v]\n", e.id, time.Since(start).Round(time.Millisecond))
			return nil
		}
	}
	return usageError(fmt.Sprintf("unknown experiment %q (use -list)", *id))
}

// runStore is `jury exp store <ls|verify> DIR`: offline inspection of a
// run store. Both open it read-only; verify prints what startup repair
// would do and exits 1 on damage.
func runStore(args []string) error {
	if len(args) != 2 {
		return usageError("usage: jury exp store <ls|verify> DIR")
	}
	cmd, dir := args[0], args[1]
	if cmd != "ls" && cmd != "verify" {
		return usageError(fmt.Sprintf("unknown store command %q (want ls or verify)", cmd))
	}
	st, err := runstore.Open(runstore.Options{Dir: dir, ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	if cmd == "verify" {
		rep := st.Repair()
		fmt.Printf("wal  %d records, torn=%d, header ok=%v", rep.WALRecords, rep.WALTorn, !rep.HeaderRewritten)
		if rep.WALNote != "" {
			fmt.Printf("  (%s)", rep.WALNote)
		}
		fmt.Println()
		if rep.Dirty() {
			return fmt.Errorf("store at %s is damaged (repairable: reopen it writable)", dir)
		}
		fmt.Println("clean")
		return nil
	}
	var table [][]string
	for _, r := range st.Records() {
		table = append(table, []string{
			r.Key.Short(), r.Scenario, strings.Join(r.Schemes, ","),
			fmt.Sprint(r.Seed), fmt.Sprintf("%016x", r.Digest), fmt.Sprint(r.Checked),
			time.Unix(0, r.AppendedAt).UTC().Format("2006-01-02T15:04:05Z"),
		})
	}
	fmt.Print(exp.FormatTable([]string{"key", "scenario", "schemes", "seed", "digest", "checked", "appended"}, table))
	fmt.Printf("%d records\n", st.Len())
	return nil
}

// printRows is the runner of a table the paper states rather than measures.
func printRows(title string, rows func() []string) func(bool, uint64) error {
	return func(bool, uint64) error {
		fmt.Println(title)
		for _, r := range rows() {
			fmt.Println(" ", r)
		}
		return nil
	}
}

func runTab3(full bool, seed uint64) error {
	o := exp.Tab3Options{Seed: seed}
	if full {
		o.Repeats = 20
	}
	rows1, err := exp.Tab3LongShort(o)
	if err != nil {
		return err
	}
	rows2, err := exp.Tab3HeteroRTT(o)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range append(rows1, rows2...) {
		table = append(table, []string{r.Experiment, r.Class,
			fmt.Sprintf("%.1f", r.ThrMbps), fmt.Sprintf("%.2f", r.DelayRatio), fmt.Sprint(r.Flows)})
	}
	fmt.Print(exp.FormatTable([]string{"experiment", "class", "thr(Mbps)", "delayRatio", "flows"}, table))
	return nil
}

func runFig1(full bool, seed uint64) error {
	o := exp.Fig1Options{Seed: seed}
	o.Stagger, o.Lifetime = fig1Scale.at(full)
	res, err := exp.Fig1AstraeaGeneralization(o)
	if err != nil {
		return err
	}
	fmt.Printf("Astraea time-averaged Jain index:\n  in training region  (100 Mbps): %.3f\n  unseen environment  (350 Mbps): %.3f\n",
		res.InDomainJain, res.OutOfDomainJain)
	return nil
}

func runFig4(bool, uint64) error {
	rows, err := exp.Fig4SignalPhases(exp.Fig4Options{})
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			exp.FmtMbps(r.SendRateBps), exp.FmtMbps(r.ThroughputBps),
			fmt.Sprintf("%.1f", float64(r.AvgRTT)/1e6), fmt.Sprintf("%.3f", r.LossRate),
		})
	}
	fmt.Print(exp.FormatTable([]string{"rate(Mbps)", "thr(Mbps)", "rtt(ms)", "loss"}, table))
	return nil
}

func runFig5(bool, uint64) error {
	rows, err := exp.Fig5OccupancyProbe(exp.Fig5Options{})
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			fmt.Sprintf("%.2f", r.Share), fmt.Sprintf("%.4f", r.ThrChangeRatio),
			fmt.Sprintf("%.2f", r.EstimatedShare),
		})
	}
	fmt.Print(exp.FormatTable([]string{"share", "thrChange(+10% probe)", "Eq.5 estimate"}, table))
	return nil
}

func runFig6(full bool, seed uint64) error {
	o := exp.Fig6Options{Seed: seed}
	if full {
		o.Runs = 60
		o.Stagger = 60 * time.Second
		o.Lifetime = 180 * time.Second
	}
	rows, err := exp.Fig6JainIndex(o)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Scheme,
			fmt.Sprintf("%.3f", r.MeanJain), fmt.Sprintf("%.3f", r.P5), fmt.Sprintf("%.3f", r.P95),
			fmt.Sprint(r.Runs)})
	}
	fmt.Print(exp.FormatTable([]string{"scheme", "meanJain", "p5", "p95", "runs"}, table))
	return nil
}

func runFig7(panel string) func(bool, uint64) error {
	return func(full bool, seed uint64) error {
		var p exp.Fig7Panel
		for _, cand := range exp.Fig7Panels() {
			if cand.ID == panel {
				p = cand
			}
		}
		o := exp.Fig7Options{Seed: seed}
		o.Stagger, o.Lifetime = fig7Scale.at(full)
		res, err := exp.Fig7Convergence(p, o)
		if err != nil {
			return err
		}
		fmt.Printf("panel %s: %s @ %s Mbps / %v RTT / %.1f%% loss — time-averaged Jain %.3f, utilization %.3f\n",
			p.ID, p.Scheme, exp.FmtMbps(p.Rate), p.RTT, p.Loss*100, res.Jain, res.Utilization)
		fmt.Print(formatSeries(res.Series))
		return nil
	}
}

func runFig7All(full bool, seed uint64) error {
	o := exp.Fig7Options{Seed: seed}
	o.Stagger, o.Lifetime = fig7Scale.at(full)
	results, err := exp.Fig7AllPanels(o)
	if err != nil {
		return err
	}
	for _, res := range results {
		p := res.Panel
		fmt.Printf("panel %s: %s @ %s Mbps / %v RTT / %.1f%% loss — time-averaged Jain %.3f, utilization %.3f\n",
			p.ID, p.Scheme, exp.FmtMbps(p.Rate), p.RTT, p.Loss*100, res.Jain, res.Utilization)
	}
	return nil
}

// formatSeries lays flow series rows out one line per sample time, with
// one column per flow in name order.
func formatSeries(series []exp.FlowSeriesRow) string {
	byT := map[time.Duration]map[string]float64{}
	var order []time.Duration
	flows := map[string]bool{}
	var names []string
	for _, r := range series {
		if byT[r.T] == nil {
			byT[r.T] = map[string]float64{}
			order = append(order, r.T)
		}
		byT[r.T][r.Flow] = r.Mbps
		if !flows[r.Flow] {
			flows[r.Flow] = true
			names = append(names, r.Flow)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, t := range order {
		fmt.Fprintf(&b, "  t=%4ds", int(t.Seconds()))
		for _, f := range names {
			fmt.Fprintf(&b, "  %s=%7.1f", f, byT[t][f])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func runFig8(full bool, seed uint64) error {
	o := exp.Fig8Options{Seed: seed}
	o.Stagger, o.Lifetime = fig8Scale.at(full)
	res, err := exp.Fig8RTTFairness(o)
	if err != nil {
		return err
	}
	fmt.Printf("late shares (Mbps):")
	for _, s := range res.LateShares {
		fmt.Printf(" %.1f", s/1e6)
	}
	fmt.Printf("\nlate Jain: %.3f\navg RTTs (ms):", res.LateJain)
	for _, r := range res.AvgRTTms {
		fmt.Printf(" %.0f", r)
	}
	fmt.Println()
	return nil
}

func runFig9(full bool, seed uint64) error {
	o := exp.Fig9Options{Seed: seed}
	if !full {
		o.Lifetime = 60 * time.Second
		o.RTTs = []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond}
	}
	rows, err := exp.Fig9Friendliness(o)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Scheme, r.RTT.String(), fmt.Sprintf("%.3f", r.Ratio)})
	}
	fmt.Print(exp.FormatTable([]string{"scheme", "rtt", "thr/cubic"}, table))
	return nil
}

func runFig10(full bool, seed uint64) error {
	o := exp.Fig10Options{Seed: seed}
	if full {
		o.Lifetime = 120 * time.Second
		o.Bandwidths = []float64{10e6, 50e6, 100e6, 200e6, 300e6, 400e6, 500e6, 600e6}
		o.Delays = []time.Duration{15, 30, 45, 60, 80, 100, 120}
		for i := range o.Delays {
			o.Delays[i] *= time.Millisecond
		}
	}
	rows, err := exp.Fig10PerformanceSweeps(o)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Scheme, r.Param, fmt.Sprintf("%.3g", r.X),
			fmt.Sprintf("%.3f", r.Utilization), fmt.Sprintf("%.1f", r.QueuingDelay)})
	}
	fmt.Print(exp.FormatTable([]string{"scheme", "param", "x", "utilization", "queue(ms)"}, table))
	return nil
}

// printPareto prints Fig. 11/13 throughput/delay rows, or passes on the
// error that kept them from being measured.
func printPareto(rows []exp.Fig11Row, err error) error {
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Scheme, exp.FmtMbps(r.ThroughputBps),
			fmt.Sprintf("%.3f", r.NormalizedDelay)})
	}
	fmt.Print(exp.FormatTable([]string{"scheme", "thr(Mbps)", "normDelay"}, table))
	return nil
}

func runFig11a(_ bool, seed uint64) error {
	return printPareto(exp.Fig11Satellite(exp.Fig11Options{Seed: seed}))
}

func runFig11b(_ bool, seed uint64) error {
	return printPareto(exp.Fig11HighSpeed(exp.Fig11Options{Seed: seed}))
}

func runFig12(full bool, seed uint64) error {
	rows, err := exp.Fig12LTEResponsiveness(exp.Fig12Options{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Print(fig12Table(rows))
	return nil
}

// fig12Table is Fig. 12's capacity-tracking table, one row per scheme in
// name order.
func fig12Table(rows []exp.Fig12Row) string {
	seen := map[string]bool{}
	var schemes []string
	for _, r := range rows {
		if r.Scheme != "capacity" && !seen[r.Scheme] {
			seen[r.Scheme] = true
			schemes = append(schemes, r.Scheme)
		}
	}
	sort.Strings(schemes)
	table := make([][]string, len(schemes))
	for i, s := range schemes {
		table[i] = []string{s, fmt.Sprintf("%.3f", exp.Fig12Tracking(rows, s))}
	}
	return exp.FormatTable([]string{"scheme", "capacity tracking"}, table)
}

func runFig13(intra bool) func(bool, uint64) error {
	return func(_ bool, seed uint64) error {
		return printPareto(exp.Fig13WAN(intra, exp.Fig13Options{Seed: seed}))
	}
}

func runAblation(full bool, seed uint64) error {
	o := exp.AblationOptions{Seed: seed}
	if full {
		o.Stagger, o.Lifetime = 60*time.Second, 180*time.Second
	}
	rows, err := exp.RunAblation(o)
	if err != nil {
		return err
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.Variant, fmt.Sprintf("%.3f", r.Jain),
			fmt.Sprintf("%.3f", r.Utilization), fmt.Sprintf("%.1f", r.QueueMS)})
	}
	fmt.Print(exp.FormatTable([]string{"variant", "jain", "utilization", "queue(ms)"}, table))
	return nil
}

func runMultiBottleneck(full bool, seed uint64) error {
	res, err := exp.RunMultiBottleneck(exp.MultiBottleneckOptions{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("long (both links): %.1f Mbps\n", res.LongMbps)
	fmt.Printf("cross link1: %.1f Mbps (Jain %.3f)\n", res.Cross1Mbps, res.Link1Jain)
	fmt.Printf("cross link2: %.1f Mbps (Jain %.3f)\n", res.Cross2Mbps, res.Link2Jain)
	return nil
}

func runFig14(full bool, seed uint64) error {
	rows, err := exp.Fig14CPUOverhead(exp.Fig14Options{Seed: seed})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println(" ", strings.TrimSpace(r.String()))
	}
	return nil
}
