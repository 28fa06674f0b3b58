package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/bgpsim/bgpsim"
	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/measure"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// newWorld builds the paper-scale internet through the root package.
func newWorld() (*bgpsim.Simulator, error) {
	return bgpsim.New(bgpsim.WithScale(workload.WorldScale), bgpsim.WithSeed(workload.WorldSeed))
}

// fig2 runs the Figure 2 panel at paper scale: setup_s is the median
// world build plus a warm-up panel, the timed phase is whole panels
// (rounds) over a fixed attacker sample, and every cell is then
// re-solved through Simulator.Hijack, whose per-cell latencies give
// p50_ms and p99_ms. The seed picks the cells re-solved on the message
// engine.
func fig2(cfg config) (*run, error) {
	r := &run{}
	var (
		sim    *bgpsim.Simulator
		builds []float64
	)
	for i := 0; i < workload.Setups; i++ {
		sim = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := newWorld()
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		sim = s
	}
	opts := bgpsim.ExperimentOptions{AttackerSample: workload.Fig2Attackers, Seed: workload.Fig2SampleSeed}
	t0 := time.Now()
	if _, err := sim.RunVulnerabilityPanel(false, bgpsim.ExperimentOptions{AttackerSample: 8, Seed: workload.Fig2SampleSeed}); err != nil {
		return nil, err
	}
	r.set("setup_s", measure.Median(builds)+time.Since(t0).Seconds(), "s")

	rounds := max(1, int(workload.Fig2RoundsPerSecond*float64(cfg.seconds)+0.5))
	var (
		rates []float64
		cells int64
		panel *bgpsim.VulnerabilityPanel
	)
	cpu0 := measure.SelfCPU()
	for i := 0; i < rounds; i++ {
		t := time.Now()
		p, err := sim.RunVulnerabilityPanel(false, opts)
		if err != nil {
			return nil, err
		}
		el := time.Since(t).Seconds()
		n := 0
		for _, c := range p.Curves {
			n += c.Summary.N
		}
		rates = append(rates, float64(n)/el)
		cells += int64(n)
		if panel != nil && fmt.Sprint(panel.Curves) != fmt.Sprint(p.Curves) {
			r.attempted = cells
			return r, &check.Failure{Check: "fig2.repeat", Detail: fmt.Sprintf("round %d panel differs from round 0", i)}
		}
		panel = p
	}
	cpu := measure.SelfCPU() - cpu0
	fmt.Fprintf(os.Stderr, "bench: round rates %.1f cells/s, world builds %.3fs\n", rates, builds)
	r.attempted = cells
	r.set("ops_per_s", measure.Median(rates), "1/s")
	r.set("cpu_us_per_op", float64(cpu.Microseconds())/float64(cells), "us")
	rss, err := measure.PeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, "MB")

	lat, err := fig2Check(sim, panel, cfg.seed)
	if err != nil {
		return r, err
	}
	r.set("p50_ms", measure.Percentile(lat, 50), "ms")
	r.set("p99_ms", measure.Percentile(lat, 99), "ms")
	return r, nil
}

// fig2Check verifies the panel and returns, per cell, the median of its
// Simulator.Hijack latencies in ms over the passes. Every cell of the
// panel is re-solved with Simulator.Hijack, the same answer on every
// pass, and each curve's pollution multiset must equal its CCDF; a
// seeded sample of cells is re-solved on the generation-stepped message
// engine and must match exactly. The median keeps out both of the
// host's disturbances unless they meet most of a cell's passes: bursts
// of hypervisor steal, which slow a few percent of single calls, and
// sub-second fast windows, in which calls run about a fifth faster. A
// cell's fastest pass would read it as fast whenever any one pass met
// such a window, so the median cell flipped between the fast and the
// slow level from run to run. The percentiles describe the cells.
func fig2Check(sim *bgpsim.Simulator, p *bgpsim.VulnerabilityPanel, seed int64) ([]float64, error) {
	curves := make([]check.Curve, len(p.Curves))
	for i, c := range p.Curves {
		cv := check.Curve{Name: c.Target.Name, Depth: c.Target.Depth, N: c.Summary.N, Mean: c.Summary.Mean}
		for _, pt := range c.Points {
			cv.Points = append(cv.Points, check.Point{X: pt.X, Count: pt.Count})
		}
		curves[i] = cv
	}
	if err := check.Curves(curves, sim.NumASes()); err != nil {
		return nil, err
	}
	sample := attackerSample(workload.Fig2SampleSeed, sim.NumASes(), workload.Fig2Attackers)
	// A cell's passes lie a whole panel (about 4 s) apart, longer than
	// the host's fast windows, so they do not meet the same window.
	type cell struct {
		attacker, value int
		ms              []float64
	}
	cells := make([][]cell, len(p.Curves))
	for pass := 0; pass < workload.Fig2PointPasses; pass++ {
		for i, c := range p.Curves {
			target := sim.MustASNAt(c.Target.Node)
			k := 0
			for _, a := range sample {
				if a == c.Target.Node {
					continue
				}
				t := time.Now()
				rep, err := sim.Hijack(bgpsim.HijackSpec{Attacker: sim.MustASNAt(a), Target: target})
				if err != nil {
					return nil, err
				}
				ms := float64(time.Since(t).Nanoseconds()) / 1e6
				if pass == 0 {
					cells[i] = append(cells[i], cell{attacker: a, value: rep.PollutedASes})
				} else if err := check.Cell("fig2.repeat", fmt.Sprintf("%s attacker %d pass %d", c.Target.Name, a, pass), rep.PollutedASes, cells[i][k].value); err != nil {
					return nil, err
				}
				cells[i][k].ms = append(cells[i][k].ms, ms)
				k++
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var lat []float64
	for i, c := range p.Curves {
		values := make([]int, len(cells[i]))
		for k, x := range cells[i] {
			values[k] = x.value
			lat = append(lat, measure.Median(x.ms))
		}
		if err := check.Multiset(curves[i], values); err != nil {
			return nil, err
		}
		if i >= workload.Fig2EngineCells {
			continue
		}
		x := cells[i][rng.Intn(len(values))]
		o, _, err := sim.TraceHijack(sim.MustASNAt(x.attacker), sim.MustASNAt(c.Target.Node))
		if err != nil {
			return nil, err
		}
		want := 0
		for n := 0; n < o.N(); n++ {
			if o.Polluted(n) {
				want++
			}
		}
		if err := check.Cell("fig2.engine", fmt.Sprintf("%s attacker %d", c.Target.Name, x.attacker), x.value, want); err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// attackerSample restates the experiment runners' documented sampling
// rule (internal/experiments rngFor and SampleAttackers): a math/rand
// stream seeded with FNV-64a over the big-endian seed and the purpose
// "attackers" shuffles every node, and the sample is the first s. If the
// rule ever changes, the multiset check reports it.
func attackerSample(seed int64, n, s int) []int {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte("attackers"))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:s]
}
