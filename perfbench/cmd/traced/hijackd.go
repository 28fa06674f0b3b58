package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/bgpsim/bgpsim/internal/asn"
	"github.com/bgpsim/bgpsim/internal/core"
	"github.com/bgpsim/bgpsim/internal/deploy"
	"github.com/bgpsim/bgpsim/internal/experiments"
	"github.com/bgpsim/bgpsim/internal/hijack"
	"github.com/bgpsim/bgpsim/internal/queryd"
	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/mix"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

const (
	tracedSnapshots = 8   // hot targets whose snapshots the core layer builds
	tracedCells     = 200 // cells per core path
	tracedBlocks    = 80  // query-mix blocks sent through the in-process server
)

const reqHeader = "X-Bench-Req"

// hijackdLayers times the serving stack's layers: snapshot builds, delta
// repair with and without a defense, and the warm full solve it competes
// with; then the query mix through queryd's handler in process, over
// loopback HTTP, with the handler timed inside the request.
func hijackdLayers(tr *tracer, m metrics, w *experiments.World, seed int64, sec *section) error {
	n := w.Graph.N()
	hot := mix.HotTargets(workload.HotSeed, n, workload.HotTargets)
	coreNodes := deploy.TopDegree(w.Graph, workload.CoreROV).Nodes
	rov := asn.NewIndexSet(n)
	for _, i := range coreNodes {
		rov.Add(i)
	}
	if err := coreLayers(tr, m, w, hot[:tracedSnapshots], rov, seed); err != nil {
		return err
	}

	srv, err := queryd.New(queryd.Config{World: w, Workers: workload.Procs})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var handlerMu sync.Mutex
	handlerNs := map[int64]int64{}
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.Atoi(r.Header.Get(reqHeader + "-Span"))
		id := tr.begin("queryd.handler", parent, req)
		t := time.Now()
		h.ServeHTTP(rw, r)
		d := time.Since(t).Nanoseconds()
		tr.end(id)
		handlerMu.Lock()
		handlerNs[req] = d
		handlerMu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: wrapped}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 60 * time.Second}
	post := func(q mix.Query, req int64, parent int) (map[string]any, error) {
		body, err := q.Body(coreNodes)
		if err != nil {
			return nil, err
		}
		hr, err := http.NewRequest(http.MethodPost, base+q.Path(), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		hr.Header.Set(reqHeader+"-Span", strconv.Itoa(parent))
		resp, err := hc.Do(hr)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, &check.Failure{Check: "hijackd.status", Detail: fmt.Sprintf("%s: %d %s", q.Path(), resp.StatusCode, data)}
		}
		var out map[string]any
		return out, json.Unmarshal(data, &out)
	}
	for i, t := range hot {
		if _, err := post(mix.Query{Shape: mix.Undefended, Target: t, Attacker: (t + 1) % n}, int64(-i-1), 0); err != nil {
			return err
		}
	}
	before, err := queryMetrics(hc, base)
	if err != nil {
		return err
	}

	seq := mix.Sequence(seed, 0, tracedBlocks, n, hot)
	sec.start()
	root := tr.begin("queryd.mix", 0, 0)
	var (
		transportNs, estimateNs int64
		estimates               int
		paths                   = map[string]int{}
	)
	for i, q := range seq {
		req := int64(i + 1)
		id := tr.begin("queryd.request", root, req)
		t := time.Now()
		out, err := post(q, req, id)
		d := time.Since(t).Nanoseconds()
		tr.end(id)
		if err != nil {
			return err
		}
		handlerMu.Lock()
		hd := handlerNs[req]
		handlerMu.Unlock()
		transportNs += d - hd
		if q.Shape == mix.Estimate {
			estimateNs += hd
			estimates++
		}
		if p, ok := out["path"].(string); ok {
			paths[p]++
		}
	}
	tr.end(root)
	sec.stop()
	sec.ops = int64(len(seq))
	after, err := queryMetrics(hc, base)
	if err != nil {
		return err
	}
	var handlerTotal int64
	handlerMu.Lock()
	defer handlerMu.Unlock()
	for req := int64(1); req <= int64(len(seq)); req++ {
		handlerTotal += handlerNs[req]
	}
	hits := after.Snapshots.Hits - before.Snapshots.Hits
	misses := after.Snapshots.Misses - before.Snapshots.Misses
	m.set("queryd.handler_us", float64(handlerTotal)/1e3/float64(len(seq)), "us")
	m.set("queryd.transport_us", float64(transportNs)/1e3/float64(len(seq)), "us")
	m.set("queryd.estimate_us", float64(estimateNs)/1e3/float64(max(estimates, 1)), "us")
	m.set("queryd.snapshot_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	m.set("queryd.path_delta", float64(paths["delta"]), "count")
	m.set("queryd.path_full", float64(paths["full"]), "count")
	m.set("queryd.path_estimate", float64(paths["estimate"]), "count")
	return nil
}

type queryMetricsReply struct {
	Snapshots struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"snapshots"`
}

func queryMetrics(hc *http.Client, base string) (queryMetricsReply, error) {
	var out queryMetricsReply
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// coreLayers times snapshot builds and, over the same cells, delta repair
// (undefended and under ROV on the core) against the warm full solve;
// every delta answer must equal the full solve's.
func coreLayers(tr *tracer, m metrics, w *experiments.World, targets []int, rov *asn.IndexSet, seed int64) error {
	pol := w.Policy
	g := w.Graph
	tw := g.TotalAddrWeight()
	full := core.NewSolver(pol)
	ds := core.NewDeltaSolver(pol)
	root := tr.begin("core.serving", 0, 0)
	defer tr.end(root)

	snaps := make([]*core.Snapshot, len(targets))
	var buildNs int64
	for i, t := range targets {
		id := tr.begin("core.snapshot_build", root, 0)
		st := time.Now()
		s, err := full.BuildSnapshot(t)
		buildNs += time.Since(st).Nanoseconds()
		tr.end(id)
		if err != nil {
			return err
		}
		snaps[i] = s
	}
	m.set("core.snapshot_build_ms", float64(buildNs)/1e6/float64(len(targets)), "ms")

	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	type cell struct {
		snap int
		at   core.Attack
	}
	cells := make([]cell, tracedCells)
	for i := range cells {
		s := rng.Intn(len(targets))
		a := rng.Intn(n)
		for a == targets[s] {
			a = rng.Intn(n)
		}
		cells[i] = cell{s, core.Attack{Target: targets[s], Attacker: a}}
	}
	// The three paths run in turn on every cell, so a drift in the host's
	// speed reaches them alike; every delta answer must equal a full
	// solve of the same cell and defense.
	paths := []struct {
		name, metric string
		def          core.Defense
		delta        bool
		ns           int64
	}{
		{name: "core.full_warm", metric: "core.full_warm_us"},
		{name: "core.delta.undefended", metric: "core.delta_us.undefended", delta: true},
		{name: "core.delta.defended", metric: "core.delta_us.defended", def: core.Defense{Blocked: rov}, delta: true},
	}
	for _, c := range cells {
		for i := range paths {
			p := &paths[i]
			var (
				o   core.OutcomeView
				err error
			)
			id := tr.begin(p.name, root, 0)
			st := time.Now()
			if p.delta {
				o, err = ds.SolveDelta(snaps[c.snap], c.at, p.def)
			} else {
				o, err = full.SolveDefense(c.at, p.def)
			}
			p.ns += time.Since(st).Nanoseconds()
			tr.end(id)
			if err != nil {
				return err
			}
			if !p.delta {
				continue
			}
			got := hijack.Measure(g, tw, o).Pollution
			ref, err := full.SolveDefense(c.at, p.def)
			if err != nil {
				return err
			}
			if err := check.Cell("core.delta", fmt.Sprintf("%s target %d attacker %d", p.name, c.at.Target, c.at.Attacker), got, ref.PollutedCount()); err != nil {
				return err
			}
		}
	}
	for _, p := range paths {
		m.set(p.metric, float64(p.ns)/1e3/float64(len(cells)), "us")
	}
	st := ds.Stats()
	m.set("core.delta_region_nodes", float64(st.Examined)/float64(max(st.DeltaSolves, 1)), "count")
	m.set("core.delta_fallbacks", float64(st.FullFallbacks), "count")
	return nil
}
