package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/runstore"
)

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
		for _, f := range exp.Figures {
			fmt.Printf("  %-7s %s\n", f.ID, f.Title)
		}
		if *id == "" && !*list {
			return usageError("")
		}
		return nil
	}
	for _, f := range exp.Figures {
		if f.ID == *id {
			start := time.Now()
			text, _, err := f.Run(*full, *seed)
			if err != nil {
				return err
			}
			fmt.Print(text)
			fmt.Printf("\n[%s completed in %v]\n", f.ID, time.Since(start).Round(time.Millisecond))
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
