package mrtgen

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func params(seed int64) Params {
	return Params{Seed: seed, Peers: 2, Prefixes: 500, ROAShare: 0.6, Updates: 3000, OriginHijacks: 20, SubHijacks: 20, Decoys: 10}
}

// records splits an MRT file into (type, subtype, body) triples by the
// RFC 6396 common header.
func records(t *testing.T, path string) [][3]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][3]any
	for len(data) > 0 {
		if len(data) < 12 {
			t.Fatalf("%d trailing bytes", len(data))
		}
		n := int(binary.BigEndian.Uint32(data[8:12]))
		out = append(out, [3]any{binary.BigEndian.Uint16(data[4:6]), binary.BigEndian.Uint16(data[6:8]), data[12 : 12+n]})
		data = data[12+n:]
	}
	return out
}

func TestGenerateIsSeeded(t *testing.T) {
	dir := t.TempDir()
	a, err := Generate(filepath.Join(dir, "a"), params(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(filepath.Join(dir, "b"), params(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(filepath.Join(dir, "c"), params(2))
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) []byte {
		d, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if !bytes.Equal(read(a.Updates), read(b.Updates)) || !bytes.Equal(read(a.ROAs), read(b.ROAs)) {
		t.Fatal("same seed, different inputs")
	}
	if bytes.Equal(read(a.Updates), read(c.Updates)) {
		t.Fatal("different seeds, same update stream")
	}
}

func TestGeneratePlantsExpectedAlerts(t *testing.T) {
	in, err := Generate(t.TempDir(), params(3))
	if err != nil {
		t.Fatal(err)
	}
	if in.UpdateCount != 3000 {
		t.Fatalf("%d updates", in.UpdateCount)
	}
	recs := records(t, in.Updates)
	if len(recs) != 3000 {
		t.Fatalf("%d records in the stream, want 3000", len(recs))
	}
	for _, r := range recs {
		if r[0].(uint16) != 16 || r[1].(uint16) != 4 {
			t.Fatalf("record type %d/%d, want BGP4MP MESSAGE_AS4 (16/4)", r[0], r[1])
		}
	}
	// Decoys validate NotFound and raise nothing; every other planted
	// hijack raises exactly one alert.
	reasons := map[string]int{}
	for _, a := range in.StreamAlerts {
		reasons[a.Reason]++
	}
	if reasons["invalid-origin"] != 20 || reasons["subprefix-hijack"] != 20 || len(in.StreamAlerts) != 40 {
		t.Fatalf("alerts by reason %v, want 20 invalid-origin and 20 subprefix-hijack", reasons)
	}
}

func TestRIBFollowsRFC6396(t *testing.T) {
	in, err := GenerateRIB(t.TempDir(), params(4), 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	recs := records(t, in.RIB)
	if len(recs) != 101 || recs[0][0].(uint16) != 13 || recs[0][1].(uint16) != 1 {
		t.Fatalf("want a PEER_INDEX_TABLE then 100 RIB records, got %d records starting %d/%d", len(recs), recs[0][0], recs[0][1])
	}
	// Collector BGP ID, empty view name, peer count, then the first peer
	// entry: its type must carry the A bit (four-octet AS) with the I bit
	// clear (IPv4), which RFC 6396 §4.3.1 encodes as 0x02.
	pit := recs[0][2].([]byte)
	if got := pit[8]; got != 0x02 {
		t.Fatalf("peer type %#x, want 0x02", got)
	}
	if in.RIBRoutes != 200 || len(in.RIBAlerts) != 5 {
		t.Fatalf("%d routes, %d alerts; want 200 and 5", in.RIBRoutes, len(in.RIBAlerts))
	}
}
