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
// protocol (each connection's decisions run on that connection's own
// goroutine, so concurrent clients are served on all cores at once;
// admission control bounds the decisions in flight).
//
//	jury serve -addr 127.0.0.1:9000                     # reference policy
//	jury serve -actor actor.json -debug-addr :9090      # trained actor + metrics
//	jury serve -actor actor.json -max-inflight 1024
//
// SIGHUP hot-swaps the policy by reloading -actor through the
// health gate (a rejected or later-misbehaving version is rolled back
// automatically); SIGINT/SIGTERM drain gracefully: in-flight requests are
// answered before the process exits.
func runServe(args []string) error {
	fs := flag.NewFlagSet("jury serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9000", "listen address for the inference service")
		actor     = fs.String("actor", "", "serve a JSON actor network (jurytrain -out artifact)")
		maxFlight = fs.Int("max-inflight", 0, "admission-control bound on decisions in flight (0 = default)")
		drainWait = fs.Duration("drain", 5*time.Second, "graceful-drain budget on SIGINT/SIGTERM")
	)
	hub, err := newObsFlags(fs, "", false).parse(args)
	if err != nil {
		return err
	}
	defer hub.Close()
	// Listen for signals before announcing the address, so a supervisor
	// that signals as soon as it reads the announcement is heard.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)

	p, desc, err := loadPolicy(*actor)
	if err != nil {
		return err
	}
	srv, err := agentrpc.ServeConfig(*addr, p, agentrpc.Config{MaxInFlight: *maxFlight})
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
		next, desc, err := loadPolicy(*actor)
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
	fmt.Fprintf(os.Stderr, "jury serve: served %d decisions (%d shed, %d timeouts, %d rollbacks)\n",
		srv.Decisions(), srv.Shed(), srv.Timeouts(), srv.Rollbacks())
	return nil
}

// loadPolicy builds the serving policy from -actor. Without it, the tuned
// reference policy serves — useful for wiring tests and as a known-good
// SIGHUP rollback target.
func loadPolicy(actor string) (agentrpc.Policy, string, error) {
	if actor == "" {
		return core.NewReferencePolicy(), "reference policy", nil
	}
	p, err := core.PolicyFromActorFile(actor)
	return p, "actor " + actor, err
}
