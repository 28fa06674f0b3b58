package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/measure"
	"github.com/bgpsim/bgpsim/perfbench/lib/mrtgen"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

var (
	replayLine = regexp.MustCompile(`replay: (\d+) RIB routes, (\d+) updates from \d+ peers over \d+ sessions \(\d+ reconnects\); (\d+) sent, (\d+) shed`)
	alertTime  = regexp.MustCompile(` t=\d+`)
)

// replay is one mrtreplay run's outcome.
type replay struct {
	wall, cpu, ready            time.Duration
	rssMB                       float64
	rib, dispatched, sent, shed int
	alerts                      []string
	err                         error
}

// runReplay runs mrtreplay with its built-in collector at full speed,
// shedding nothing. ready is when it reported its ROAs loaded, the end
// of its set-up.
func runReplay(cfg config, args ...string) (*replay, error) {
	var (
		mu    sync.Mutex
		ready time.Time
	)
	c, err := startChild(filepath.Join(cfg.bin, "mrtreplay"), append(args, "-max-pending", "0"), func(l string) bool {
		if strings.HasPrefix(l, "mrtreplay: loaded ") {
			mu.Lock()
			ready = time.Now()
			mu.Unlock()
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	rp := &replay{err: c.wait(170 * time.Second)}
	mu.Lock()
	rp.ready = ready.Sub(c.started)
	mu.Unlock()
	rp.wall = time.Since(c.started)
	if st := c.cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rp.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			rp.rssMB = float64(ru.Maxrss) / 1024
		}
	}
	for _, l := range c.stderrLines() {
		if m := replayLine.FindStringSubmatch(l); m != nil {
			rp.rib, _ = strconv.Atoi(m[1])
			rp.dispatched, _ = strconv.Atoi(m[2])
			rp.sent, _ = strconv.Atoi(m[3])
			rp.shed, _ = strconv.Atoi(m[4])
		}
	}
	for _, l := range strings.Split(c.stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(l, "ALERT "); ok {
			rp.alerts = append(rp.alerts, alertTime.ReplaceAllString(rest, ""))
		}
	}
	if rp.err != nil {
		rp.err = fmt.Errorf("mrtreplay %v: %w\n%s", args, rp.err, c.tail())
	}
	return rp, nil
}

// mrtReplay replays a seeded update stream through mrtreplay several
// times, and once a fixed RFC 6396 RIB dump.
func mrtReplay(cfg config) (*run, error) {
	r := &run{}
	dir := filepath.Join(cfg.work, "mrt", strconv.FormatInt(cfg.seed, 10))
	prm := workload.MRTParamsFor(cfg.seed, cfg.seconds)
	// The inputs are generated once, outside every metric: set-up is the
	// program's, from exec until mrtreplay reports its ROAs loaded.
	in, err := mrtgen.Generate(dir, prm)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	want := mrtgen.SortKeys(in.StreamAlerts)

	var (
		rates, walls, rss, readies []float64
		cpu                        time.Duration
		sent                       int
	)
	for i := 0; i < workload.Rounds; i++ {
		rp, err := runReplay(cfg, "-updates", in.Updates, "-roas", in.ROAs)
		if err != nil {
			return nil, err
		}
		if rp.err != nil {
			return nil, rp.err
		}
		r.attempted += int64(in.UpdateCount)
		if err := check.Replay(rp.dispatched, rp.sent, rp.shed, in.UpdateCount); err != nil {
			return r, err
		}
		if err := check.Alerts(rp.alerts, want); err != nil {
			return r, err
		}
		rates = append(rates, float64(rp.sent)/rp.wall.Seconds())
		walls = append(walls, float64(rp.wall.Nanoseconds())/1e6)
		rss = append(rss, rp.rssMB)
		readies = append(readies, rp.ready.Seconds())
		cpu += rp.cpu
		sent += rp.sent
	}
	fmt.Fprintf(os.Stderr, "bench: round rates %.0f /s, exec to ready %.4f s\n", rates, readies)
	r.set("setup_s", measure.Median(readies), "s")
	r.set("ops_per_s", measure.Median(rates), "1/s")
	r.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(sent), "us")
	r.set("peak_rss_mb", measure.Median(rss), "MB")
	r.set("p50_ms", measure.Median(walls), "ms")
	r.set("p99_ms", measure.Percentile(walls, 99), "ms")

	// The RIB dump is the one operation kept although it fails: the
	// program reads TABLE_DUMP_V2 peer entries only with peer type 0x06,
	// while RFC 6396 encodes a four-octet-AS IPv4 peer as 0x02, so it
	// rejects the peer index table and then the whole dump. Its routes
	// count as failed until the program reads them; once it does, they
	// must deliver and raise exactly the RIB's planted alerts.
	ribDir := filepath.Join(cfg.work, "mrt", "rib")
	rib, err := mrtgen.GenerateRIB(ribDir, workload.MRTParams(workload.RIBSeed), workload.RIBRoutes, workload.RIBHijacks)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ribDir)
	rp, err := runReplay(cfg, "-rib", rib.RIB, "-roas", rib.ROAs)
	if err != nil {
		return nil, err
	}
	r.attempted += int64(rib.RIBRoutes)
	if rp.err != nil || rp.rib != rib.RIBRoutes {
		fmt.Fprintf(os.Stderr, "bench: RIB replay failed (%d of %d routes): %v\n", rp.rib, rib.RIBRoutes, rp.err)
		r.failed += int64(rib.RIBRoutes)
		return r, nil
	}
	if err := check.Replay(rp.dispatched, rp.sent, rp.shed, rib.RIBRoutes); err != nil {
		return r, err
	}
	return r, check.Alerts(rp.alerts, mrtgen.SortKeys(rib.RIBAlerts))
}
