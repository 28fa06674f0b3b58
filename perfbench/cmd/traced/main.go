// Command traced is the benchmark's traced run: it times calls into each
// layer's exported functions (topology, core, hijack, sweep,
// experiments, codecs, queryd, mrt, bgpwire, firehose, feed) with spans
// kept in memory, writes the spans and a CPU profile when it ends, and
// prints the per-layer metrics as its last line.
//
// It is the only part of the benchmark that imports internal/ packages,
// and it is built apart from cmd/bench, so a rename there breaks only
// the traced run. Every traced run measures every layer; the workload
// selects which section the runtime.* metrics and the op counts describe.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/measure"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// metrics collects the per-layer values.
type metrics map[string]measure.Metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = measure.Metric{Value: v, Unit: unit}
}

// section is one workload's part of the traced run.
type section struct {
	ops int64
	gc0 runtime.MemStats
	gc1 runtime.MemStats
}

func (s *section) start() { runtime.ReadMemStats(&s.gc0) }
func (s *section) stop()  { runtime.ReadMemStats(&s.gc1) }

func main() {
	name := flag.String("workload", "", "fig2-sweep, hijackd-mix or mrt-replay")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Int("seconds", 10, "accepted for the common command line; the traced run does fixed work")
	trace := flag.Int("trace", 1, "must be 1")
	flag.String("bin", "", "unused: the traced run calls the layers in process")
	work := flag.String("work", ".bench_build", "scratch directory; spans and the profile go to its traces/")
	flag.Parse()
	if *trace != 1 {
		fmt.Fprintln(os.Stderr, "traced: -trace must be 1")
		os.Exit(2)
	}
	switch *name {
	case "fig2-sweep", "hijackd-mix", "mrt-replay":
	default:
		fmt.Fprintf(os.Stderr, "traced: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workload.Procs)
	cpu, err := measure.PinToOneCPU()
	if err == nil {
		err = run(*name, *seed, *work, cpu)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, work string, cpu int) error {
	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%d", name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	start := measure.ReadHostCPU()
	tr := newTracer()
	m := metrics{}
	secs := map[string]*section{"fig2-sweep": {}, "hijackd-mix": {}, "mrt-replay": {}}

	w, err := buildWorld(tr, m)
	if err == nil {
		err = fig2Layers(tr, m, w, seed, dir, secs["fig2-sweep"])
	}
	if err == nil {
		err = hijackdLayers(tr, m, w, seed, secs["hijackd-mix"])
	}
	if err == nil {
		err = mrtLayers(tr, m, seed, dir, secs["mrt-replay"])
	}
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	var cf *check.Failure
	if errors.As(err, &cf) {
		// A wrong answer is a result, not a crash: report it as such.
		fmt.Fprintln(os.Stderr, "traced:", err)
		return measure.Print(os.Stdout, measure.NoiseSince(start, cpu), measure.Result{
			Correct: false, Attempted: max(secs[name].ops, 1), Metrics: m,
		})
	}
	if err != nil {
		return err
	}

	s := secs[name]
	cycles := float64(s.gc1.NumGC - s.gc0.NumGC)
	m.set("runtime.gc_cycles_per_kop", cycles*1000/float64(s.ops), "count")
	m.set("runtime.gc_pause_ms", float64(s.gc1.PauseTotalNs-s.gc0.PauseTotalNs)/1e6, "ms")
	m.set("runtime.alloc_kb_per_op", float64(s.gc1.TotalAlloc-s.gc0.TotalAlloc)/1024/float64(s.ops), "KB")

	if err := tr.write(base + ".trace.json"); err != nil {
		return err
	}
	tr.report(os.Stderr)
	cal := newTracer()
	t0 := time.Now()
	for i := 0; i < 100000; i++ {
		cal.end(cal.begin("calibrate", 0, 0))
	}
	fmt.Fprintf(os.Stderr, "traced: one span costs %.0f ns\n", float64(time.Since(t0).Nanoseconds())/100000)
	fmt.Fprintf(os.Stderr, "traced: spans and self times in %s.trace.json, CPU profile in %s.cpu.pprof\n", base, base)
	return measure.Print(os.Stdout, measure.NoiseSince(start, cpu), measure.Result{
		Correct: true, Attempted: s.ops, Metrics: m,
	})
}
