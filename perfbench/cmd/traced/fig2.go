package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/stats"
	"github.com/bgpsim/bgpsim/internal/sweep"
	"github.com/bgpsim/bgpsim/internal/topology"
	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// Traced sizes: small enough that a traced run of every layer stays
// within seconds, large enough that each mean covers hundreds of calls.
const (
	tracedAttackers = 60 // per Figure 2 target
	codecRepeats    = 40 // encodes and decodes of the panel's shard file per codec
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// buildWorld times the world's build steps as experiments.NewWorld
// composes them.
func buildWorld(tr *tracer, m metrics) (*experiments.World, error) {
	root := tr.begin("experiments.world", 0, 0)
	defer tr.end(root)
	p := topology.DefaultParams(workload.WorldScale)
	p.Seed = workload.WorldSeed

	step := func(name, metric string, f func() error) error {
		id := tr.begin(name, root, 0)
		t := time.Now()
		err := f()
		m.set(metric, ms(time.Since(t)), "ms")
		tr.end(id)
		return err
	}
	var (
		g   *topology.Graph
		con *topology.Contraction
		c   *topology.Classification
		pol *core.Policy
	)
	err := step("topology.generate", "topology.generate_ms", func() (err error) {
		g, err = topology.Generate(p)
		return err
	})
	if err == nil {
		err = step("topology.contract", "topology.contract_ms", func() (err error) {
			con, err = topology.ContractSiblings(g)
			return err
		})
	}
	if err == nil {
		err = step("topology.classify", "topology.classify_ms", func() error {
			c = topology.Classify(con.Graph, topology.ClassifyOptions{})
			return nil
		})
	}
	if err == nil {
		err = step("core.policy", "core.policy_ms", func() (err error) {
			pol, err = core.NewPolicy(con.Graph, c.Tier1)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	return &experiments.World{Graph: con.Graph, Class: c, Policy: pol, Params: p}, nil
}

// fig2Layers runs a Figure 2 panel call by call: each cell's solve and
// measure, each record through the panel's group reducer, and each
// curve's assembly, then the records through both shard codecs.
func fig2Layers(tr *tracer, m metrics, w *experiments.World, seed int64, dir string, sec *section) error {
	targets, err := w.ScenarioTargets(topology.UnderTier1)
	if err != nil {
		return err
	}
	n := w.Graph.N()
	attackers := rand.New(rand.NewSource(seed)).Perm(n)[:tracedAttackers]
	cfgs := make([]hijack.SweepConfig, len(targets))
	for i, t := range targets {
		cfgs[i] = hijack.SweepConfig{Target: t.Node, Attackers: attackers}
	}
	wl, err := hijack.NewWorkload(w.Policy, cfgs)
	if err != nil {
		return err
	}
	g := w.Graph
	tw := g.TotalAddrWeight()
	solver := core.NewSolver(w.Policy)

	sec.start()
	traced := time.Now()
	root := tr.begin("experiments.fig2", 0, 0)
	var recs []hijack.Record
	var solveNs, measureNs int64
	for grp := 0; grp < wl.Matrix.Groups; grp++ {
		for k := 0; k < wl.Matrix.Size(grp); k++ {
			at, def := wl.Matrix.Job(grp, k)
			id := tr.begin("core.solve", root, 0)
			t := time.Now()
			o, err := solver.SolveDefense(at, def)
			solveNs += time.Since(t).Nanoseconds()
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("hijack.measure", root, 0)
			t = time.Now()
			recs = append(recs, hijack.Measure(g, tw, o))
			measureNs += time.Since(t).Nanoseconds()
			tr.end(id)
		}
	}
	tracedLoop := time.Since(traced)
	cells := len(recs)
	sizes := make([]int, wl.Matrix.Groups)
	for i := range sizes {
		sizes[i] = wl.Matrix.Size(i)
	}
	var (
		curves     []experiments.VulnerabilityCurve
		pollution  []int
		reduceID   int
		assembleNs int64
		reduceNs   int64
	)
	// The flush body is the Figure 2 reducer's: CCDF, summary and depth
	// correlation of each target's pollution.
	red := sweep.Groups[hijack.Record](sizes, func(grp int, rs []hijack.Record) {
		id := tr.begin("experiments.assemble", reduceID, 0)
		t := time.Now()
		pollution = pollution[:0]
		for _, r := range rs {
			pollution = append(pollution, r.Pollution)
		}
		rho, _ := hijack.DepthCorrelation(wl.Attackers[grp], pollution, w.Class)
		curves = append(curves, experiments.VulnerabilityCurve{
			Target: targets[grp], Points: stats.CCDF(pollution), Summary: stats.Summarize(pollution),
			AggressivenessDepthRho: rho,
		})
		assembleNs += time.Since(t).Nanoseconds()
		tr.end(id)
	}, nil)
	for i, r := range recs {
		reduceID = tr.begin("sweep.reduce", root, 0)
		t := time.Now()
		red.Emit(i, r)
		reduceNs += time.Since(t).Nanoseconds()
		tr.end(reduceID)
	}
	red.Finish()
	tr.end(root)
	sec.stop()
	sec.ops = int64(cells)

	m.set("core.solve_us", float64(solveNs)/1e3/float64(cells), "us")
	m.set("hijack.measure_us", float64(measureNs)/1e3/float64(cells), "us")
	m.set("sweep.reduce_us", float64(reduceNs-assembleNs)/1e3/float64(cells), "us")
	m.set("experiments.assemble_ms", float64(assembleNs)/1e6, "ms")

	// Tracing overhead: the same solve and measure loop without spans.
	t0 := time.Now()
	for grp := 0; grp < wl.Matrix.Groups; grp++ {
		for k := 0; k < wl.Matrix.Size(grp); k++ {
			at, def := wl.Matrix.Job(grp, k)
			o, err := solver.SolveDefense(at, def)
			if err != nil {
				return err
			}
			hijack.Measure(g, tw, o)
		}
	}
	plain := time.Since(t0)
	fmt.Fprintf(os.Stderr, "traced: cell loop %.1f ms traced, %.1f ms without spans (%+.2f%%)\n",
		ms(tracedLoop), ms(plain), 100*(tracedLoop.Seconds()/plain.Seconds()-1))

	// Allocation per warm solve, on a pass with no other work.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for grp := 0; grp < wl.Matrix.Groups; grp++ {
		for k := 0; k < wl.Matrix.Size(grp); k++ {
			at, def := wl.Matrix.Job(grp, k)
			if _, err := solver.SolveDefense(at, def); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	m.set("core.solve_alloc_b", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(cells), "B")

	cc := make([]check.Curve, len(curves))
	for i, c := range curves {
		cc[i] = check.Curve{Name: c.Target.Name, Depth: c.Target.Depth, N: c.Summary.N, Mean: c.Summary.Mean}
		for _, p := range c.Points {
			cc[i].Points = append(cc[i].Points, check.Point{X: p.X, Count: p.Count})
		}
	}
	if err := check.Curves(cc, n); err != nil {
		return err
	}
	return codecLayers(tr, m, recs, dir)
}

// codecLayers writes and reads the panel's records as one shard file
// through the json and recio-col shard codecs, codecRepeats times each.
func codecLayers(tr *tracer, m metrics, recs []hijack.Record, dir string) error {
	f := &sweep.ShardFile[hijack.Record]{
		Experiment: "fig2-bench", Cells: len(recs), Groups: 1, Shards: 1, CellHi: len(recs), Records: recs,
	}
	root := tr.begin("codec", 0, 0)
	defer tr.end(root)
	for _, name := range []string{sweep.FormatJSON, sweep.FormatRecioCol} {
		codec, err := sweep.CodecByName[hijack.Record](name)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "codec."+codec.Ext())
		var enc, dec time.Duration
		var size int64
		for i := 0; i < codecRepeats; i++ {
			id := tr.begin("codec.encode."+name, root, 0)
			t := time.Now()
			err = codec.WriteShard(path, f)
			enc += time.Since(t)
			tr.end(id)
			if err != nil {
				return err
			}
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			size = st.Size()
			id = tr.begin("codec.decode."+name, root, 0)
			t = time.Now()
			got, err := codec.ReadShard(path)
			dec += time.Since(t)
			tr.end(id)
			if err != nil {
				return err
			}
			if fmt.Sprint(got.Records) != fmt.Sprint(f.Records) {
				return &check.Failure{Check: "codec.roundtrip", Detail: fmt.Sprintf("%s: records differ after a round trip", name)}
			}
		}
		mb := float64(size) * codecRepeats / 1e6
		m.set("codec.encode_mb_per_s."+name, mb/enc.Seconds(), "MB/s")
		m.set("codec.decode_mb_per_s."+name, mb/dec.Seconds(), "MB/s")
		m.set("codec.bytes_per_record."+name, float64(size)/float64(len(recs)), "B")
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	return nil
}
