package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpsim/bgpsim"
	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/measure"
	"github.com/bgpsim/bgpsim/perfbench/lib/mix"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// attackReply is the part of a /v1/attack reply the checks read.
type attackReply struct {
	Target    int    `json:"target"`
	Attacker  int    `json:"attacker"`
	Kind      string `json:"kind"`
	Exact     bool   `json:"exact"`
	Pollution *int   `json:"pollution"`
}

// vulnReply is the part of a /v1/vulnerability reply the checks read.
type vulnReply struct {
	Target    int   `json:"target"`
	Attackers []int `json:"attackers"`
	Pollution []int `json:"pollution"`
}

type metricsReply struct {
	Snapshots struct {
		Builds int64 `json:"builds"`
	} `json:"snapshots"`
	Endpoints map[string]struct {
		Shed   int64 `json:"shed"`
		Errors int64 `json:"errors"`
	} `json:"endpoints"`
}

type server struct {
	c    *child
	addr string
	hc   *http.Client
}

func (s *server) post(path string, body []byte, out any) (int, error) {
	resp, err := s.hc.Post("http://"+s.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (s *server) metrics() (metricsReply, error) {
	var m metricsReply
	resp, err := s.hc.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// startServer starts hijackd at paper scale and returns once it answers
// queries and every hot target's snapshot is built. n is the world's
// node count.
func startServer(cfg config, hot []int, n int) (*server, error) {
	ready := make(chan string, 1)
	c, err := startChild(filepath.Join(cfg.bin, "hijackd"), []string{
		"-scale", strconv.Itoa(workload.WorldScale), "-seed", strconv.Itoa(workload.WorldSeed),
		"-listen", "127.0.0.1:0", "-workers", strconv.Itoa(workload.Procs),
	}, func(l string) bool {
		if addr, ok := strings.CutPrefix(l, "hijackd: listening on http://"); ok {
			ready <- addr
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	var addr string
	select {
	case addr = <-ready:
	case <-c.done:
		_ = c.wait(time.Second)
		return nil, fmt.Errorf("hijackd exited before listening:\n%s", c.tail())
	case <-time.After(120 * time.Second):
		_ = c.stop(10 * time.Second)
		return nil, fmt.Errorf("hijackd not listening after 120s")
	}
	s := &server{c: c, addr: addr, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workload.Procs},
		Timeout:   60 * time.Second,
	}}
	for _, t := range hot {
		body, err := mix.Query{Shape: mix.Undefended, Target: t, Attacker: (t + 1) % n}.Body(nil)
		if err != nil {
			return nil, err
		}
		var rep attackReply
		if _, err := s.post("/v1/attack", body, &rep); err != nil {
			_ = c.stop(10 * time.Second)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// sample is one exact answer kept for re-solving in process.
type sample struct {
	q         mix.Query
	pollution int
}

// hijackdMix drives a hijackd child with a closed loop of Procs clients
// over the seeded query mix.
func hijackdMix(cfg config) (*run, error) {
	r := &run{}
	sim, err := newWorld()
	if err != nil {
		return nil, err
	}
	n := sim.NumASes()
	core := sim.TopDegreeDeployment(workload.CoreROV).Nodes
	hot := mix.HotTargets(workload.HotSeed, n, workload.HotTargets)

	var (
		srv    *server
		setups []float64
	)
	for i := 0; i < workload.Setups; i++ {
		t0 := time.Now()
		s, err := startServer(cfg, hot, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < workload.Setups-1 {
			if err := s.c.stop(30 * time.Second); err != nil {
				return nil, fmt.Errorf("stop hijackd: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = srv.c.stop(30 * time.Second) // the run has already failed
		}
	}()
	r.set("setup_s", measure.Median(setups), "s")

	// The timed phase sends the seeded sequence Passes times over. A
	// pass is the unit of ops_per_s, and a query's latency is the
	// median of its Passes round trips, so round trips that met a burst
	// of hypervisor steal reach p99_ms only if most of a query's did.
	clients := workload.Procs
	blocks := max(1, int(float64(workload.QueriesPerSecond*cfg.seconds)/float64(len(mix.Block)*clients)+0.5))
	seqs := make([][]mix.Query, clients)
	lat := make([][][]float64, clients) // client, query, pass; each client writes its own
	for c := range seqs {
		seqs[c] = mix.Sequence(cfg.seed, c, blocks, n, hot)
		lat[c] = make([][]float64, len(seqs[c]))
	}
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}

	var (
		ops     atomic.Int64
		mu      sync.Mutex
		samples [mix.Vulnerability + 1][]sample
		failed  int64
		cerr    error
	)
	record := func(q mix.Query, status int, err error, pollution *int) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failed++
			if status == 0 && cerr == nil {
				cerr = err
			}
			return
		}
		if (q.Shape == mix.Undefended || q.Shape == mix.ROV) && len(samples[q.Shape]) < workload.EngineChecks {
			samples[q.Shape] = append(samples[q.Shape], sample{q, *pollution})
		}
	}
	one := func(c, i int) error {
		q := seqs[c][i]
		body, err := q.Body(core)
		if err != nil {
			return err
		}
		t := time.Now()
		if q.Shape == mix.Vulnerability {
			var rep vulnReply
			status, err := srv.post(q.Path(), body, &rep)
			lat[c][i] = append(lat[c][i], float64(time.Since(t).Nanoseconds())/1e6)
			ops.Add(1)
			if err == nil {
				if cerr := check.Vulnerability(q.Target, q.Attackers, rep.Target, rep.Attackers, rep.Pollution, n); cerr != nil {
					return cerr
				}
			}
			record(q, status, err, nil)
			return nil
		}
		var rep attackReply
		status, err := srv.post(q.Path(), body, &rep)
		lat[c][i] = append(lat[c][i], float64(time.Since(t).Nanoseconds())/1e6)
		ops.Add(1)
		if err == nil {
			sent := check.Query{Target: q.Target, Attacker: q.Attacker, Kind: q.Kind(), Exact: q.Exact()}
			if cerr := check.Echo(sent, check.Query{Target: rep.Target, Attacker: rep.Attacker, Kind: rep.Kind, Exact: rep.Exact}); cerr != nil {
				return cerr
			}
			if q.Exact() {
				if cerr := check.Exact(sent, rep.Pollution, n); cerr != nil {
					return cerr
				}
			}
		}
		record(q, status, err, rep.Pollution)
		return nil
	}

	pid := srv.c.cmd.Process.Pid
	cpu0, err := measure.ProcCPU(pid)
	if err != nil {
		return nil, err
	}
	phase := time.Now()
	var rates []float64
	for pass := 0; pass < workload.Passes; pass++ {
		t := time.Now()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range seqs[c] {
					if err := one(c, i); err != nil {
						errs[c] = err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		rates = append(rates, float64(len(seqs[0])*clients)/time.Since(t).Seconds())
		for _, err := range errs {
			if err != nil {
				r.attempted = ops.Load()
				return r, err
			}
		}
	}
	cpu1, err := measure.ProcCPU(pid)
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	var (
		all     []float64
		byShape [mix.Vulnerability + 1][]float64
	)
	for c, seq := range seqs {
		for i, q := range seq {
			ms := measure.Median(lat[c][i])
			all = append(all, ms)
			byShape[q.Shape] = append(byShape[q.Shape], ms)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %d queries in %.2fs, pass rates %.1f /s, set-ups %.3fs\n", ops.Load(), time.Since(phase).Seconds(), rates, setups)
	for sh, l := range byShape {
		fmt.Fprintf(os.Stderr, "bench: shape %d: %d queries, p50 %.3f ms, p99 %.3f ms\n", sh, len(l), measure.Percentile(l, 50), measure.Percentile(l, 99))
	}
	total := int64(len(all) * workload.Passes)
	r.attempted, r.failed = total, failed
	r.set("ops_per_s", measure.Median(rates), "1/s")
	r.set("cpu_us_per_op", float64((cpu1-cpu0).Microseconds())/float64(total), "us")
	r.set("p50_ms", measure.Percentile(all, 50), "ms")
	r.set("p99_ms", measure.Percentile(all, 99), "ms")
	rss, err := measure.PeakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss, "MB")

	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	var shed, errs int64
	for _, e := range after.Endpoints {
		shed += e.Shed
		errs += e.Errors
	}
	if err := check.Served(shed, errs); err != nil {
		return r, err
	}
	if b := after.Snapshots.Builds - before.Snapshots.Builds; b != 0 {
		return r, &check.Failure{Check: "hijackd.warm", Detail: fmt.Sprintf("%d snapshot builds in the timed phase; the hot set should be cached", b)}
	}
	stopped = true
	if err := srv.c.stop(30 * time.Second); err != nil {
		return nil, fmt.Errorf("hijackd did not drain and exit cleanly: %w", err)
	}
	return r, resolveSamples(sim, core, samples[mix.Undefended], samples[mix.ROV])
}

// resolveSamples re-solves a sample of exact answers in process: the
// undefended ones on the message engine, the ROV ones with the root
// package's full solver (hijackd answers both by delta repair).
func resolveSamples(sim *bgpsim.Simulator, core []int, undefended, rov []sample) error {
	var filters []bgpsim.ASN
	for _, i := range core {
		filters = append(filters, sim.MustASNAt(i))
	}
	for _, s := range undefended {
		o, _, err := sim.TraceHijack(sim.MustASNAt(s.q.Attacker), sim.MustASNAt(s.q.Target))
		if err != nil {
			return err
		}
		want := 0
		for i := 0; i < o.N(); i++ {
			if o.Polluted(i) {
				want++
			}
		}
		if err := check.Cell("hijackd.engine", fmt.Sprintf("target %d attacker %d", s.q.Target, s.q.Attacker), s.pollution, want); err != nil {
			return err
		}
	}
	for _, s := range rov {
		rep, err := sim.Hijack(bgpsim.HijackSpec{Attacker: sim.MustASNAt(s.q.Attacker), Target: sim.MustASNAt(s.q.Target), Filters: filters})
		if err != nil {
			return err
		}
		if err := check.Cell("hijackd.rov", fmt.Sprintf("target %d attacker %d", s.q.Target, s.q.Attacker), s.pollution, rep.PollutedASes); err != nil {
			return err
		}
	}
	return nil
}
