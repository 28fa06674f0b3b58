package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/bgpsim/bgpsim/internal/bgpwire"
	"github.com/bgpsim/bgpsim/internal/feed"
	"github.com/bgpsim/bgpsim/internal/firehose"
	"github.com/bgpsim/bgpsim/internal/mrt"
	"github.com/bgpsim/bgpsim/internal/rpki"
	"github.com/bgpsim/bgpsim/perfbench/lib/check"
	"github.com/bgpsim/bgpsim/perfbench/lib/mrtgen"
	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// mrtLayers decodes the seeded update stream with mrt.Reader alone, then
// replays it through a firehose engine into a collector and detector in
// process, as mrtreplay wires them.
func mrtLayers(tr *tracer, m metrics, seed int64, dir string, sec *section) error {
	in, err := mrtgen.Generate(filepath.Join(dir, "mrt"), workload.MRTParams(seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(dir, "mrt"))
	sec.start()
	root := tr.begin("mrt.replay", 0, 0)

	// The reader alone, timed; then the decoded updates re-encoded as the
	// probe sessions put them on the wire.
	id := tr.begin("mrt.decode", root, 0)
	t := time.Now()
	recs, err := decodeAll(in.Updates)
	dec := time.Since(t)
	tr.end(id)
	if err != nil {
		return err
	}
	var wireBytes, updates int
	for _, rec := range recs {
		if msg, ok := rec.(*mrt.BGP4MPMessage); ok {
			if u, ok := msg.Message.(*bgpwire.Update); ok {
				b, err := bgpwire.Marshal(u)
				if err != nil {
					return err
				}
				wireBytes += len(b)
				updates++
			}
		}
	}
	if len(recs) != in.UpdateCount || updates != in.UpdateCount {
		return &check.Failure{Check: "mrt.decode", Detail: fmt.Sprintf("%d records, %d updates decoded of %d", len(recs), updates, in.UpdateCount)}
	}
	m.set("mrt.decode_records_per_s", float64(len(recs))/dec.Seconds(), "1/s")
	m.set("bgpwire.bytes_per_update", float64(wireBytes)/float64(updates), "B")

	var store rpki.Store
	rs := feed.NewRouteServer(&store)
	det := feed.NewDetector(rs, nil)
	rf, err := os.Open(in.ROAs)
	if err != nil {
		return err
	}
	_, err = rpki.LoadROAs(&store, rf, in.ROAs, det.NotePublished)
	rf.Close()
	if err != nil {
		return err
	}
	col := &feed.Collector{LocalAS: 65535, RouterID: 0x7f000001, Detector: det, Validator: rs}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- col.Serve(ln) }()
	uf, err := os.Open(in.Updates)
	if err != nil {
		ln.Close()
		<-served
		return err
	}
	defer uf.Close()
	addr := ln.Addr().String()
	eng := firehose.New(firehose.Config{
		Updates: uf,
		Dial:    func() (io.ReadWriteCloser, error) { return net.DialTimeout("tcp", addr, 10*time.Second) },
	})
	id = tr.begin("firehose.run", root, 0)
	t = time.Now()
	st, runErr := eng.Run(context.Background())
	tr.end(id)
	id = tr.begin("feed.drain", root, 0)
	closeErr := ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	drainErr := col.Shutdown(ctx)
	cancel()
	if err := <-served; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	collected := time.Since(t)
	tr.end(id)
	tr.end(root)
	sec.stop()
	if err := errors.Join(runErr, closeErr, drainErr); err != nil {
		return err
	}
	cs := col.Stats()
	sec.ops = int64(cs.Updates)
	m.set("feed.collector_updates_per_s", float64(cs.Updates)/collected.Seconds(), "1/s")
	m.set("detect.alerts", float64(len(det.Alerts())), "count")
	if err := check.Replay(st.Updates, st.Sent, st.Shed, in.UpdateCount); err != nil {
		return err
	}
	if cs.Updates != in.UpdateCount {
		return &check.Failure{Check: "mrt.collected", Detail: fmt.Sprintf("collector received %d of %d updates", cs.Updates, in.UpdateCount)}
	}
	var got []string
	for _, a := range det.Alerts() {
		got = append(got, fmt.Sprintf("[%s] peer=%v prefix=%v origin=%v path=%v", a.Reason, a.PeerAS, a.Prefix, a.Origin, a.Path))
	}
	return check.Alerts(got, mrtgen.SortKeys(in.StreamAlerts))
}

// decodeAll reads every record of an MRT file with mrt.Reader.
func decodeAll(path string) ([]mrt.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := mrt.NewReader(f)
	var out []mrt.Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
