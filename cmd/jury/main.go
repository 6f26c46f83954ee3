// Command jury is the repository's one command line. Its subcommands sim,
// exp, train, serve and plot are listed in subcommands below and documented
// on their run functions; `jury <subcommand> -h` lists a subcommand's flags.
// Every subcommand but plot takes the shared telemetry flags -telemetry,
// -trace-out, -debug-addr, -obs and -obs-window, and those that run
// simulations also -flight-dir. Usage errors exit 2, runtime errors exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

var subcommands = []struct {
	name, summary string
	run           func(args []string) error
}{
	{"sim", "run an ad-hoc scenario on one bottleneck (sim faults: the robustness table)", runSim},
	{"exp", "reproduce a paper table or figure by id (exp store: inspect a run store)", runExp},
	{"train", "train a Jury actor with TD3, or -eval a trained one", runTrain},
	{"serve", "run the standalone policy-inference daemon", runServe},
	{"plot", "render a figure, a telemetry trace or a fairness capture as SVG", runPlot},
}

func main() {
	if len(os.Args) > 1 {
		for _, c := range subcommands {
			if c.name == os.Args[1] {
				exit("jury "+c.name, c.run(os.Args[2:]))
			}
		}
		fmt.Fprintf(os.Stderr, "jury: unknown subcommand %q\n", os.Args[1])
	}
	fmt.Fprintln(os.Stderr, "usage: jury <subcommand> [flags]\n\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nRun 'jury <subcommand> -h' for its flags.")
	exit("jury", usageError(""))
}

// usageError is a command-line mistake: exit ends the process with status 2
// for it and 1 for any other error. An empty one means the explanation is
// already on stderr.
type usageError string

func (e usageError) Error() string { return string(e) }

// exit reports err, if it says anything, under prefix and ends the process.
func exit(prefix string, err error) {
	code := 0
	if err != nil {
		code = 1
		if errors.As(err, new(usageError)) {
			code = 2
		}
		if msg := err.Error(); msg != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", prefix, msg)
		}
	}
	os.Exit(code)
}

// obsAttach is what -obs does for the subcommands whose runs it watches.
const obsAttach = "attach the streaming fairness observer (live /fairness on -debug-addr)"

// obsFlags holds the telemetry and streaming-observer flags shared by every
// subcommand but plot, and the flag set they are registered on.
type obsFlags struct {
	fs                  *flag.FlagSet
	telemetry, obs      bool
	traceOut, debugAddr string
	window              time.Duration
	flightDir           string
}

// newObsFlags registers the shared flags on fs. obsUsage says what -obs does
// for the subcommand; an empty one (serve, which runs no simulation for the
// observer to watch) registers neither -obs nor -obs-window. Only
// subcommands that run simulations get -flight-dir.
func newObsFlags(fs *flag.FlagSet, obsUsage string, flight bool) *obsFlags {
	o := &obsFlags{fs: fs}
	fs.BoolVar(&o.telemetry, "telemetry", false, "enable the telemetry hub (implied by -trace-out/-debug-addr)")
	fs.StringVar(&o.traceOut, "trace-out", "", `write JSONL spans/events to this path ("-" for stderr)`)
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /metrics.json, /debug/pprof, /debug/vars on this address")
	if obsUsage != "" {
		fs.BoolVar(&o.obs, "obs", false, obsUsage)
		fs.DurationVar(&o.window, "obs-window", 500*time.Millisecond, "fairness snapshot cadence in virtual time")
	}
	if flight {
		fs.StringVar(&o.flightDir, "flight-dir", "", "write flight-recorder JSONL dumps here on anomaly triggers (implies -obs)")
	}
	return o
}

// parse parses the subcommand's arguments, then starts the hub the shared
// flags ask for (nil when all are off), installs it and the streaming
// observer on the experiment harness, and announces the debug endpoint. The
// caller must Close the hub before returning so the trace buffer flushes.
func (o *obsFlags) parse(args []string) (*telemetry.Hub, error) {
	o.fs.Parse(args)
	hub, err := telemetry.Setup(telemetry.Options{Enabled: o.telemetry, TraceOut: o.traceOut, DebugAddr: o.debugAddr})
	if err != nil {
		return nil, err
	}
	exp.Telemetry = hub
	exp.SetupObs(o.obs, o.window, o.flightDir, hub)
	if addr := hub.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/\n", addr)
	}
	return hub, nil
}

// oneWay converts an -rtt value in milliseconds, fractional or odd, into the
// one-way propagation delay of a symmetric path.
func oneWay(rttMS float64) time.Duration {
	return time.Duration(math.Round(rttMS * float64(time.Millisecond) / 2))
}
