// Command e2ebench is the repository's end-to-end benchmark. It drives
// an in-process sweep service (service.NewManager behind
// service.NewServer on an httptest listener) from one closed-loop
// client with one job in flight, checks every result against an
// in-process sweep.Run reference, and prints the workload's metrics as
// the last line of standard output:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same loop runs and the per-layer ones are printed instead, including
// a traced replay of one op's pipeline through the layers' public
// functions. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	data     string
}

// run executes one benchmark run and returns the process exit code:
// 0 with a result line, 1 when an op failed its check (the result line
// is still printed, with correct=false), 2 on a usage or harness error
// (no result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceMode int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 16, "run length; sets the fixed op count of the run")
	fs.IntVar(&traceMode, "trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and op counts, for testing the harness")
	fs.StringVar(&o.data, "data", filepath.Join(".bench_build", "data"), "scratch root for service data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceMode != 0 && traceMode != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, got %d\n", traceMode)
		return 2
	}
	o.trace = traceMode == 1
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "e2ebench: -seconds must be at least 1, got %d\n", o.seconds)
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}

	res, diag, err := execute(w, o, stderr)
	if err != nil && !errors.Is(err, errFailedOps) {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 2
	}
	enc := json.NewEncoder(stdout)
	if derr := enc.Encode(map[string]any{"diagnostic": diag}); derr != nil {
		fmt.Fprintf(stderr, "e2ebench: writing diagnostic: %v\n", derr)
		return 2
	}
	if werr := enc.Encode(res); werr != nil {
		fmt.Fprintf(stderr, "e2ebench: writing result: %v\n", werr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	return 0
}

// errFailedOps marks a run whose ops completed but at least one failed
// its correctness check or was refused.
var errFailedOps = errors.New("ops failed")

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
