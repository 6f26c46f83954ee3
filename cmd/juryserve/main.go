// Command juryserve runs the standalone policy-inference daemon: the
// deployment shape of the paper's architecture, where one inference service
// feeds congestion decisions to many datapath flows over the agentrpc wire
// protocol (work-conserving request batching: whatever queued during one
// policy execution is the next batch, nothing waits on a timer; admission
// control; per-tenant accounting).
//
//	juryserve -addr 127.0.0.1:9000                     # reference policy
//	juryserve -actor actor.json -debug-addr :9090      # trained actor + metrics
//	juryserve -checkpoint ck.json -batch 128 -max-queue 1024
//
// SIGHUP hot-swaps the policy by reloading -actor/-checkpoint through the
// health gate (a rejected or later-misbehaving version is rolled back
// automatically); SIGINT/SIGTERM drain gracefully: in-flight requests are
// answered before the process exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/agentrpc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// loadPolicy builds the serving policy from the artifact flags. With neither
// set, the tuned reference policy serves — useful for wiring tests and as a
// known-good SIGHUP rollback target.
func loadPolicy(actor, checkpoint string) (agentrpc.Policy, string, error) {
	switch {
	case actor != "" && checkpoint != "":
		return nil, "", fmt.Errorf("-actor and -checkpoint are mutually exclusive")
	case actor != "":
		p, err := core.PolicyFromActorFile(actor)
		return p, "actor " + actor, err
	case checkpoint != "":
		p, err := core.PolicyFromCheckpoint(checkpoint)
		return p, "checkpoint " + checkpoint, err
	default:
		return core.NewReferencePolicy(), "reference policy", nil
	}
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9000", "listen address for the inference service")
		actor      = flag.String("actor", "", "serve a JSON actor network (jurytrain -out artifact)")
		checkpoint = flag.String("checkpoint", "", "serve the actor inside a TD3 training checkpoint")
		batch      = flag.Int("batch", 0, "max requests per policy execution (0 = default)")
		maxQueue   = flag.Int("max-queue", 0, "admission-control queue bound (0 = default, negative = shed unless idle)")
		drainWait  = flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGINT/SIGTERM")

		telemetryOn = flag.Bool("telemetry", false, "enable the telemetry hub (implied by -trace-out/-debug-addr)")
		traceOut    = flag.String("trace-out", "", `write JSONL spans/events to this path ("-" for stderr)`)
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /metrics.json, /debug/pprof, /debug/vars on this address")
		obsOn       = flag.Bool("obs", false, "mount the /fairness live surfaces on -debug-addr (populated when a co-process run attaches)")
		obsWindow   = flag.Duration("obs-window", 500*time.Millisecond, "fairness snapshot cadence in virtual time")
	)
	flag.Parse()

	hub, err := telemetry.Setup(telemetry.Options{Enabled: *telemetryOn, TraceOut: *traceOut, DebugAddr: *debugAddr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "juryserve:", err)
		os.Exit(1)
	}
	defer hub.Close()
	if *obsOn {
		rt := obs.New(obs.Options{Window: *obsWindow})
		if d := hub.Debug(); d != nil {
			d.Handle("/fairness", rt.State())
			d.Handle("/fairness/stream", rt.State().StreamHandler())
		}
	}
	if a := hub.DebugAddr(); a != "" {
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/\n", a)
	}

	p, desc, err := loadPolicy(*actor, *checkpoint)
	if err != nil {
		fmt.Fprintln(os.Stderr, "juryserve:", err)
		os.Exit(1)
	}
	srv, err := agentrpc.ServeConfig(*addr, p, agentrpc.Config{
		MaxBatch: *batch,
		MaxQueue: *maxQueue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "juryserve:", err)
		os.Exit(1)
	}
	hub.ExportRPCDaemon(srv)
	fmt.Fprintf(os.Stderr, "juryserve: serving %s on %s (version %d)\n", desc, srv.Addr(), srv.PolicyVersion())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			next, desc, err := loadPolicy(*actor, *checkpoint)
			if err != nil {
				fmt.Fprintf(os.Stderr, "juryserve: reload failed, keeping version %d: %v\n", srv.PolicyVersion(), err)
				continue
			}
			id, err := srv.Swap(next)
			if err != nil {
				fmt.Fprintf(os.Stderr, "juryserve: swap refused, keeping version %d: %v\n", srv.PolicyVersion(), err)
				continue
			}
			fmt.Fprintf(os.Stderr, "juryserve: hot-swapped to %s (version %d)\n", desc, id)
			continue
		}
		fmt.Fprintf(os.Stderr, "juryserve: %v — draining (budget %v)\n", sig, *drainWait)
		if err := srv.Drain(*drainWait); err != nil {
			fmt.Fprintln(os.Stderr, "juryserve: drain:", err)
		}
		fmt.Fprintf(os.Stderr, "juryserve: served %d decisions in %d batches (%d shed, %d timeouts, %d rollbacks)\n",
			srv.Decisions(), srv.Batches(), srv.Shed(), srv.Timeouts(), srv.Rollbacks())
		return
	}
}
