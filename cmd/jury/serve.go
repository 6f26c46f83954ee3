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
)

// runServe is `jury serve`: the standalone policy-inference daemon — the
// deployment shape of the paper's architecture, where one inference service
// feeds congestion decisions to many datapath flows over the agentrpc wire
// protocol (work-conserving request batching: whatever queued during one
// policy execution is the next batch, nothing waits on a timer; admission
// control; per-tenant accounting).
//
//	jury serve -addr 127.0.0.1:9000                     # reference policy
//	jury serve -actor actor.json -debug-addr :9090      # trained actor + metrics
//	jury serve -checkpoint ck.json -batch 128 -max-queue 1024
//
// SIGHUP hot-swaps the policy by reloading -actor/-checkpoint through the
// health gate (a rejected or later-misbehaving version is rolled back
// automatically); SIGINT/SIGTERM drain gracefully: in-flight requests are
// answered before the process exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("jury serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:9000", "listen address for the inference service")
		actor      = fs.String("actor", "", "serve a JSON actor network (jurytrain -out artifact)")
		checkpoint = fs.String("checkpoint", "", "serve the actor inside a TD3 training checkpoint")
		batch      = fs.Int("batch", 0, "max requests per policy execution (0 = default)")
		maxQueue   = fs.Int("max-queue", 0, "admission-control queue bound (0 = default, negative = shed unless idle)")
		drainWait  = fs.Duration("drain", 5*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	)
	of := newObsFlags(fs, "mount the /fairness live surfaces on -debug-addr (populated when a co-process run attaches)", false)
	hub, err := of.parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()
	if *actor != "" && *checkpoint != "" {
		return usageError("-actor and -checkpoint are mutually exclusive")
	}
	// Listen for signals before announcing the address, so a supervisor
	// that signals as soon as it reads the announcement is heard.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)

	p, desc, err := loadPolicy(*actor, *checkpoint)
	if err != nil {
		return err
	}
	srv, err := agentrpc.ServeConfig(*addr, p, agentrpc.Config{
		MaxBatch: *batch,
		MaxQueue: *maxQueue,
	})
	if err != nil {
		return err
	}
	hub.ExportRPCDaemon(srv)
	fmt.Fprintf(os.Stderr, "jury serve: serving %s on %s (version %d)\n", desc, srv.Addr(), srv.PolicyVersion())

	for sig := range sigs {
		if sig != syscall.SIGHUP {
			fmt.Fprintf(os.Stderr, "jury serve: %v — draining (budget %v)\n", sig, *drainWait)
			break
		}
		next, desc, err := loadPolicy(*actor, *checkpoint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jury serve: reload failed, keeping version %d: %v\n", srv.PolicyVersion(), err)
			continue
		}
		id, err := srv.Swap(next)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jury serve: swap refused, keeping version %d: %v\n", srv.PolicyVersion(), err)
			continue
		}
		fmt.Fprintf(os.Stderr, "jury serve: hot-swapped to %s (version %d)\n", desc, id)
	}
	if err := srv.Drain(*drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "jury serve: drain:", err)
	}
	fmt.Fprintf(os.Stderr, "jury serve: served %d decisions in %d batches (%d shed, %d timeouts, %d rollbacks)\n",
		srv.Decisions(), srv.Batches(), srv.Shed(), srv.Timeouts(), srv.Rollbacks())
	return nil
}

// loadPolicy builds the serving policy from the artifact flags, at most one
// of which runServe lets through. With neither set, the tuned reference
// policy serves — useful for wiring tests and as a known-good SIGHUP
// rollback target.
func loadPolicy(actor, checkpoint string) (agentrpc.Policy, string, error) {
	switch {
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
