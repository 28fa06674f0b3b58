package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`    // request id; 0 outside hijackd queries
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layer sums the spans of one name.
type layer struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalMs     float64 `json:"total_ms"`
	SelfMs      float64 `json:"self_ms"`
	MeanSelfUs  float64 `json:"mean_self_us"`
	MeanTotalUs float64 `json:"mean_total_us"`
	ChildShare  float64 `json:"child_share"`
	childNs     int64
	totalNs     int64
}

// layers returns each span name's total and self time. A span's self time
// is its duration minus the part of it its child spans cover.
func (t *tracer) layers() map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			p := t.spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				child[s.Parent] += hi - lo
			}
		}
	}
	out := map[string]*layer{}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{Name: s.Name}
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.Count++
		l.totalNs += d
		l.childNs += child[s.ID]
	}
	for _, l := range out {
		l.TotalMs = float64(l.totalNs) / 1e6
		l.SelfMs = float64(l.totalNs-l.childNs) / 1e6
		l.MeanSelfUs = float64(l.totalNs-l.childNs) / 1e3 / float64(l.Count)
		l.MeanTotalUs = float64(l.totalNs) / 1e3 / float64(l.Count)
		if l.totalNs > 0 {
			l.ChildShare = float64(l.childNs) / float64(l.totalNs)
		}
	}
	return out
}

// write stores the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	ls := t.layers()
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	sum := make([]*layer, 0, len(names))
	for _, n := range names {
		sum = append(sum, ls[n])
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Layers []*layer `json:"layers"`
		Spans  []span   `json:"spans"`
	}{sum, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// report prints each layer's self time, largest first.
func (t *tracer) report(w io.Writer) {
	ls := t.layers()
	all := make([]*layer, 0, len(ls))
	for _, l := range ls {
		all = append(all, l)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].SelfMs > all[j].SelfMs })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %14s\n", "layer", "spans", "total_ms", "self_ms", "mean_self_us")
	for _, l := range all {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %14.2f\n", l.Name, l.Count, l.TotalMs, l.SelfMs, l.MeanSelfUs)
	}
}
