// Command benchmark is the repo benchmark: an OT image at paper resolution
// goes from the load generator through connectors, the real strata-broker,
// the Algorithm-1 pipeline and the key-value store, and the time until its
// verdict is durable is measured end to end and layer by layer. See
// README.md in this directory for the workloads, the metric glossary and
// how a performance change cites the rows it moves.
//
//	go run ./benchmark                         every workload, untraced + traced
//	go run ./benchmark -workload live_xproc    one measured run, one JSON line
//	go run ./benchmark -compare A.json B.json  noise-aware comparison
package main

import (
	"flag"
	"fmt"
	"os"
)

// options are the parsed command-line flags of every role.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	scale     string
	runs      int
	out       string
	compare   string
	role      string
	broker    string
	dir       string
	brokerBin string
}

func main() {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (empty: run them all)")
	fs.Int64Var(&o.seed, "seed", 2022, "input seed; the same seed renders the same build (7 is the held-out seed)")
	fs.IntVar(&o.seconds, "seconds", 0, "length of the measured window (0: the scale's default)")
	fs.IntVar(&o.trace, "trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.scale, "scale", "full", "full (2000 px, paper resolution) or smoke (256 px, seconds-long)")
	fs.IntVar(&o.runs, "runs", 1, "all-workloads mode: measured runs per workload, each with the next seed")
	fs.StringVar(&o.out, "out", "", "all-workloads mode: result file (default bench-out/benchmark/result.json)")
	fs.StringVar(&o.compare, "compare", "", "compare this result file with the one named as the first argument")
	fs.StringVar(&o.role, "role", "drive", "drive or worker (worker is spawned by drive)")
	fs.StringVar(&o.broker, "broker", "", "worker role: strata-broker address")
	fs.StringVar(&o.dir, "dir", "", "worker role: working directory")
	fs.StringVar(&o.brokerBin, "broker-bin", os.Getenv("BENCH_BROKER_BIN"), "strata-broker binary (default: built from ./cmd/strata-broker)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(o, fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.compare != "":
		if len(args) != 1 {
			return fmt.Errorf("usage: benchmark -compare A.json B.json")
		}
		return compareFiles(os.Stdout, o.compare, args[0])
	case o.role == "worker":
		return runWorker(o)
	case o.role != "drive":
		return fmt.Errorf("unknown role %q", o.role)
	case o.workload == "":
		return runAll(o)
	default:
		return runOne(o)
	}
}
