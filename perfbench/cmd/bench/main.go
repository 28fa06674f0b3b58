// Command bench runs one end-to-end measurement of the bgpsim benchmark:
// one workload, one seed, tracing off. It reaches the program only
// through its user surfaces — the root bgpsim package in process, and the
// built hijackd and mrtreplay binaries as child processes — so rewrites
// inside internal/ leave it building and its numbers comparable.
//
// The last line of standard output is the result object; the line
// before it records the run's noise (host steal, GOMAXPROCS, nproc).
// perfbench/run.sh builds the binaries and invokes it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/measure"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// run is one workload's outcome before printing.
type run struct {
	attempted, failed int64
	metrics           map[string]measure.Metric
}

func (r *run) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]measure.Metric{}
	}
	r.metrics[name] = measure.Metric{Value: value, Unit: unit}
}

type config struct {
	seed    int64
	seconds int
	bin     string // directory holding the built hijackd and mrtreplay
	work    string // scratch directory inside the checkout
}

func main() {
	name := flag.String("workload", "", "fig2-sweep, hijackd-mix or mrt-replay")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "reference run length; the fixed work of a run scales with it")
	trace := flag.Int("trace", 0, "must be 0: traced runs are cmd/traced")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built hijackd and mrtreplay")
	work := flag.String("work", ".bench_build", "scratch directory")
	flag.Parse()
	if *trace != 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 and -seconds positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workload.Procs)
	cpu, err := measure.PinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, bin: *bin, work: *work}
	start := measure.ReadHostCPU()

	var r *run
	switch *name {
	case "fig2-sweep":
		r, err = fig2(cfg)
	case "hijackd-mix":
		r, err = hijackdMix(cfg)
	case "mrt-replay":
		r, err = mrtReplay(cfg)
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var cf *check.Failure
	switch {
	case errors.As(err, &cf):
		// A wrong answer is a result, not a crash: report it as such.
		fmt.Fprintln(os.Stderr, "bench:", err)
		res := measure.Result{Correct: false, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics}
		if perr := measure.Print(os.Stdout, measure.NoiseSince(start, cpu), res); perr != nil {
			os.Exit(1)
		}
		return
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	noise := measure.NoiseSince(start, cpu)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d done at %s, steal %.1f%%\n", *name, *seed, time.Now().Format(time.TimeOnly), noise.StealPct)
	res := measure.Result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if err := measure.Print(os.Stdout, noise, res); err != nil {
		os.Exit(1)
	}
}
