// Command mrtgen regenerates the mrt-replay workload's inputs for one
// seed: the update stream, the ROA file and the expected alerts, plus the
// fixed RFC 6396 RIB dump the workload also replays.
//
// Usage (from the perfbench directory):
//
//	go run ./cmd/mrtgen -seed 1 -out ../.bench_build/mrt/1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/bgpsim/bgpsim/perfbench/lib/mrtgen"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "mrt-inputs", "output directory")
	flag.Parse()
	if err := run(*seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "mrtgen:", err)
		os.Exit(1)
	}
}

func run(seed int64, out string) error {
	in, err := mrtgen.Generate(out, workload.MRTParams(seed))
	if err != nil {
		return err
	}
	rib, err := mrtgen.GenerateRIB(filepath.Join(out, "rib"), workload.MRTParams(workload.RIBSeed), workload.RIBRoutes, workload.RIBHijacks)
	if err != nil {
		return err
	}
	for _, set := range []struct {
		name   string
		alerts []mrtgen.Alert
	}{{"expected-alerts.txt", in.StreamAlerts}, {"rib/expected-alerts.txt", rib.RIBAlerts}} {
		f, err := os.Create(filepath.Join(out, set.name))
		if err != nil {
			return err
		}
		for _, k := range mrtgen.SortKeys(set.alerts) {
			fmt.Fprintln(f, k)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("%s: %d updates (%d bytes), %d expected alerts; %s: %d RIB routes, %d expected alerts\n",
		in.Updates, in.UpdateCount, in.Bytes, len(in.StreamAlerts), rib.RIB, rib.RIBRoutes, len(rib.RIBAlerts))
	return nil
}
