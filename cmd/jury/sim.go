package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/metrics"
)

// runSim is `jury sim`: an ad-hoc emulated scenario — one bottleneck link,
// any mix of congestion-control schemes — printing per-flow results.
//
//	jury sim -scheme jury -rate 100 -rtt 30 -flows 3 -duration 120s
//	jury sim -scheme cubic,jury -rate 50 -rtt 40 -loss 0.005
//
// `jury sim faults` runs the robustness table instead (see runFaults).
func runSim(args []string) error {
	if len(args) > 0 && args[0] == "faults" {
		return runFaults(args[1:])
	}
	fs := flag.NewFlagSet("jury sim", flag.ExitOnError)
	var (
		schemes  = fs.String("scheme", "jury", "comma-separated schemes; a single name is replicated -flows times")
		rateMbps = fs.Float64("rate", 100, "bottleneck capacity, Mbps")
		rttMS    = fs.Float64("rtt", 30, "base round-trip time, ms")
		lossRate = fs.Float64("loss", 0, "random loss fraction, e.g. 0.001")
		bufBDP   = fs.Float64("buffer", 1.5, "buffer size in BDP multiples")
		flows    = fs.Int("flows", 1, "number of flows when -scheme is a single name")
		stagger  = fs.Duration("stagger", 0, "delay between consecutive flow starts")
		duration = fs.Duration("duration", 60*time.Second, "simulation horizon")
		seed     = fs.Uint64("seed", 1, "random seed")
		series   = fs.Bool("series", false, "print 1-second throughput series per flow")
		csvPath  = fs.String("csv", "", "write per-flow time series as CSV to this path")

		daemonAddr = fs.String("daemon-addr", "", "drive jury flows from a juryserve inference daemon at this address (AIMD-safe fallback on failure)")
	)
	of := newObsFlags(fs, obsAttach, true)
	hub, err := of.parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()
	switch {
	case !(*rateMbps > 0):
		return usageError("-rate must be positive")
	case oneWay(*rttMS) <= 0:
		return usageError("-rtt must be positive")
	case *flows <= 0:
		return usageError("-flows must be positive")
	case *duration <= 0:
		return usageError("-duration must be positive")
	case *stagger < 0:
		return usageError("-stagger must not be negative")
	case !(*lossRate >= 0 && *lossRate < 1):
		return usageError("-loss must be in [0, 1)")
	case !(*bufBDP > 0):
		return usageError("-buffer must be positive")
	}

	names := strings.Split(*schemes, ",")
	if len(names) == 1 {
		for len(names) < *flows {
			names = append(names, names[0])
		}
	}

	s := exp.Scenario{
		Name:        "jurysim",
		Rate:        *rateMbps * 1e6,
		OneWayDelay: oneWay(*rttMS),
		LossRate:    *lossRate,
		Horizon:     *duration,
		Seed:        *seed,
	}
	s.BufferBytes = s.BufferBDP(*bufBDP)
	for i, name := range names {
		spec := exp.FlowSpec{
			Scheme: strings.TrimSpace(name),
			Start:  time.Duration(i) * *stagger,
		}
		// Each daemon-driven jury flow gets its own client (one connection)
		// with the AIMD-safe fallback, so a daemon outage degrades the flow
		// instead of freezing it.
		if *daemonAddr != "" && spec.Scheme == "jury" {
			cl, err := agentrpc.DialConfig(*daemonAddr, core.AIMDPolicy{}, agentrpc.ClientConfig{
				Timeout: 10 * time.Second, // simulated time outruns wall time; don't fall back on scheduler hiccups
			})
			if err != nil {
				return fmt.Errorf("daemon dial: %w", err)
			}
			defer cl.Close()
			cl.SetLatencyHook(hub.RPCClientHook())
			spec.CC = func(seed uint64) cc.Algorithm {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				return core.New(cfg, cl)
			}
		}
		s.Flows = append(s.Flows, spec)
	}

	res, err := exp.Run(s)
	if err != nil {
		return err
	}

	fmt.Printf("link: %.1f Mbps, %.0f ms RTT, %.2f%% loss, %d B buffer — utilization %.3f\n",
		*rateMbps, *rttMS, *lossRate*100, s.BufferBytes, res.Utilization)
	rows := make([][]string, 0, len(res.Flows))
	for _, f := range res.Flows {
		st := f.Stats
		rows = append(rows, []string{
			f.Name(),
			exp.FmtMbps(st.AvgThroughputBps),
			fmt.Sprintf("%.1f", float64(st.AvgRTT)/1e6),
			fmt.Sprintf("%.1f", float64(st.MinRTT)/1e6),
			fmt.Sprintf("%.3f%%", st.LossRate*100),
		})
	}
	fmt.Print(exp.FormatTable([]string{"flow", "Mbps", "avgRTT(ms)", "minRTT(ms)", "loss"}, rows))
	if len(res.Flows) > 1 {
		// Jain at each recording instant, averaged: a lifetime-mean share
		// would count a late starter's idle prefix as unfairness.
		fmt.Printf("Jain index (time-averaged over instants with at least 2 active flows): %.3f\n", metrics.TimewiseJain(res.Flows))
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := writeFlowSeriesCSV(f, res.Flows); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}

	if *series {
		printThroughputSeries(res)
	}
	return nil
}

// runFaults is `jury sim faults`: the robustness table of EXPERIMENTS.md —
// every scheme under every deterministic fault case (burst loss,
// reordering, duplication, jitter, link flaps, combined), run checked and in
// parallel, with fairness, utilization and graceful-degradation counters
// per cell.
//
//	jury sim faults -schemes jury,bbr,cubic -rate 60 -rtt 30 -flows 3 -duration 60s
func runFaults(args []string) error {
	fs := flag.NewFlagSet("jury sim faults", flag.ExitOnError)
	var (
		schemes  = fs.String("schemes", "jury,bbr,cubic", "comma-separated schemes to stress")
		rateMbps = fs.Float64("rate", 60, "bottleneck capacity, Mbps")
		rttMS    = fs.Float64("rtt", 30, "base round-trip time, ms")
		flows    = fs.Int("flows", 3, "homogeneous flows per scenario")
		duration = fs.Duration("duration", 60*time.Second, "simulation horizon")
		seed     = fs.Uint64("seed", 1, "random seed")
	)
	of := newObsFlags(fs, obsAttach, true)
	hub, err := of.parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()

	o := exp.RobustnessOptions{
		Rate:     *rateMbps * 1e6,
		OneWay:   oneWay(*rttMS),
		Flows:    *flows,
		Lifetime: *duration,
		Seed:     *seed,
	}
	for _, name := range strings.Split(*schemes, ",") {
		if name = strings.TrimSpace(name); name != "" {
			o.Schemes = append(o.Schemes, name)
		}
	}
	// RobustnessOptions reads a zero as its default, so a zero flag would run
	// a table other than the one the header prints; a negative one runs none
	// that means anything.
	switch {
	case !(o.Rate > 0):
		return usageError("-rate must be positive")
	case o.OneWay <= 0:
		return usageError("-rtt must be positive")
	case *flows <= 0:
		return usageError("-flows must be positive")
	case *duration <= 0:
		return usageError("-duration must be positive")
	case len(o.Schemes) == 0:
		return usageError("-schemes names no scheme")
	}
	rows, err := exp.RobustnessTable(o)
	if err != nil {
		return err
	}
	fmt.Printf("robustness table: %.1f Mbps, %.0f ms RTT, %d flows, %v, seed %d (all runs invariant-checked)\n",
		*rateMbps, *rttMS, *flows, *duration, *seed)
	fmt.Print(exp.FormatRobustnessTable(rows))
	return nil
}

// printThroughputSeries prints each flow's throughput averaged over every
// second of the run.
func printThroughputSeries(res *exp.RunResult) {
	for i, f := range res.Flows {
		fmt.Printf("\n%s throughput (Mbps) per second:\n", f.Name())
		for _, r := range exp.SeriesRows(res.Flows[i:i+1], time.Second) {
			fmt.Printf("  t=%3ds %8.2f\n", int(r.T.Seconds()), r.Mbps)
		}
	}
}
