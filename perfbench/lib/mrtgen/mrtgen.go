// Package mrtgen derives the mrt-replay workload's inputs from a seed: a
// TABLE_DUMP_V2 RIB dump, a BGP4MP update stream and a ROA file, plus the
// alert set the detector must raise for the hijacks planted in them.
//
// The encoder here is written from RFC 6396 (MRT) and RFC 4271/6793 (BGP
// UPDATE with four-octet AS_PATH) and shares no code with the program, so
// a decoding fault in the program cannot cancel out against the same
// fault in the generator. The expected alerts follow the detector's
// documented rule (RFC 6811 origin validation against the ROA set,
// de-duplicated per (prefix, origin); "invalid-origin" when the prefix
// itself is published, "subprefix-hijack" when only a covering prefix
// is). Nothing the program outputs is stored as an expected value.
package mrtgen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// Params sizes one input set.
type Params struct {
	Seed int64
	// Peers is the number of collector peers, and so of replay sessions.
	Peers int
	// Prefixes is the number of /22 prefixes in the address plan.
	Prefixes int
	// ROAShare is the fraction of prefixes with a published ROA.
	ROAShare float64
	// Updates is the number of BGP4MP records in the update stream,
	// planted hijacks included.
	Updates int
	// OriginHijacks, SubHijacks and Decoys are the planted hijack counts:
	// exact-prefix hijacks of ROA-covered prefixes, /24 more-specifics of
	// ROA-covered prefixes, and hijacks of prefixes without a ROA (which
	// validate NotFound and must raise no alert).
	OriginHijacks, SubHijacks, Decoys int
}

// Alert is one expected detector finding, in the fields mrtreplay prints.
type Alert struct {
	Reason string
	Peer   uint32
	Prefix string
	Origin uint32
	Path   []uint32
}

// Key renders the alert's identity as mrtreplay prints it, without the
// arrival time (which depends on transport interleaving).
func (a Alert) Key() string {
	path := "["
	for i, as := range a.Path {
		if i > 0 {
			path += " "
		}
		path += fmt.Sprintf("AS%d", as)
	}
	path += "]"
	return fmt.Sprintf("[%s] peer=AS%d prefix=%s origin=AS%d path=%s", a.Reason, a.Peer, a.Prefix, a.Origin, path)
}

// Inputs is one generated input set on disk.
type Inputs struct {
	RIB, Updates, ROAs string
	// RIBRoutes and UpdateCount are the routes in the RIB dump and the
	// UPDATE messages in the stream: the updates a replay must deliver.
	RIBRoutes, UpdateCount int
	// StreamAlerts and RIBAlerts are the alerts the update stream and
	// the RIB dump must raise (each hijack is announced once, by one
	// peer, so every field is determined).
	StreamAlerts, RIBAlerts []Alert
	// Bytes is the update stream's size.
	Bytes int64
}

type pfx struct {
	addr uint32
	plen uint8
}

func (p pfx) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", p.addr>>24, p.addr>>16&0xff, p.addr>>8&0xff, p.addr&0xff, p.plen)
}

type roa struct {
	p      pfx
	maxLen uint8
	origin uint32
}

// announcement is one route as a peer sends it.
type announcement struct {
	peer int
	p    pfx
	path []uint32
}

const (
	peerAS0    = 64600
	ownerAS0   = 200000
	transitAS0 = 100000
	attackAS0  = 300000
	baseTime   = 1700000000
	collector  = 65535
)

type plan struct {
	prm      Params
	rng      *rand.Rand
	prefixes []pfx
	owner    []uint32
	roas     map[pfx][]roa // by ROA prefix
	hasROA   []bool
}

func newPlan(prm Params) *plan {
	pl := &plan{prm: prm, rng: rand.New(rand.NewSource(prm.Seed)), roas: map[pfx][]roa{}}
	for i := 0; i < prm.Prefixes; i++ {
		p := pfx{addr: 11<<24 | uint32(i)<<10, plen: 22}
		o := ownerAS0 + uint32(pl.rng.Intn(5000))
		pl.prefixes = append(pl.prefixes, p)
		pl.owner = append(pl.owner, o)
		has := pl.rng.Float64() < prm.ROAShare
		pl.hasROA = append(pl.hasROA, has)
		if has {
			pl.roas[p] = append(pl.roas[p], roa{p: p, maxLen: 22, origin: o})
		}
	}
	return pl
}

func (pl *plan) legitPath(peer, i int) []uint32 {
	path := []uint32{peerAS0 + uint32(peer)}
	for h := pl.rng.Intn(3); h > 0; h-- {
		path = append(path, transitAS0+uint32(pl.rng.Intn(400)))
	}
	return append(path, pl.owner[i])
}

// covering returns the ROAs whose prefix covers p.
func (pl *plan) covering(p pfx) []roa {
	var out []roa
	for l := int(p.plen); l >= 0; l-- {
		q := pfx{addr: p.addr & ^(^uint32(0) >> l), plen: uint8(l)}
		out = append(out, pl.roas[q]...)
	}
	return out
}

// validate is RFC 6811 origin validation against the plan's ROAs:
// 0 NotFound, 1 Valid, 2 Invalid.
func (pl *plan) validate(p pfx, origin uint32) int {
	res := 0
	for _, r := range pl.covering(p) {
		if r.origin == origin && p.plen <= r.maxLen {
			return 1
		}
		res = 2
	}
	return res
}

// published reports whether p itself, or only a prefix covering it,
// has a ROA.
func (pl *plan) published(p pfx) (exact, covered bool) {
	return len(pl.roas[p]) > 0, len(pl.covering(p)) > 0
}

// expect applies the detector's rule to announcements in delivery order.
func (pl *plan) expect(anns []announcement) ([]Alert, error) {
	type key struct {
		p      pfx
		origin uint32
	}
	seen := map[key]bool{}
	var out []Alert
	for _, a := range anns {
		origin := a.path[len(a.path)-1]
		if pl.validate(a.p, origin) != 2 {
			continue
		}
		k := key{a.p, origin}
		if seen[k] {
			// A repeated invalid pair would make the alert's peer and path
			// depend on which session delivers first.
			return nil, fmt.Errorf("mrtgen: invalid pair %v/AS%d announced twice", a.p, origin)
		}
		seen[k] = true
		reason := "invalid-origin"
		if exact, covered := pl.published(a.p); !exact && covered {
			reason = "subprefix-hijack"
		}
		out = append(out, Alert{Reason: reason, Peer: peerAS0 + uint32(a.peer), Prefix: a.p.String(), Origin: origin, Path: a.path})
	}
	return out, nil
}

// Generate writes the update stream and the ROA file for prm into dir.
func Generate(dir string, prm Params) (*Inputs, error) {
	if prm.Peers < 1 || prm.Prefixes < 1 || prm.Prefixes > 1<<14 || prm.Updates < prm.OriginHijacks+prm.SubHijacks+prm.Decoys {
		return nil, fmt.Errorf("mrtgen: bad params %+v", prm)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pl := newPlan(prm)
	in := &Inputs{
		Updates: filepath.Join(dir, "updates.mrt"),
		ROAs:    filepath.Join(dir, "roas.txt"),
	}
	if err := pl.writeROAs(in.ROAs); err != nil {
		return nil, err
	}
	anns, err := pl.writeUpdates(in.Updates, in)
	if err != nil {
		return nil, err
	}
	if in.StreamAlerts, err = pl.expect(anns); err != nil {
		return nil, err
	}
	return in, nil
}

// GenerateRIB writes a RIB dump of routes prefixes over the plan of prm,
// every peer carrying every prefix, with hijacks RIB-planted origin
// hijacks announced by peer 0 in place of its legitimate route.
func GenerateRIB(dir string, prm Params, routes, hijacks int) (*Inputs, error) {
	if routes > prm.Prefixes || hijacks > routes {
		return nil, fmt.Errorf("mrtgen: RIB of %d routes with %d hijacks over %d prefixes", routes, hijacks, prm.Prefixes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pl := newPlan(prm)
	in := &Inputs{RIB: filepath.Join(dir, "rib.mrt"), ROAs: filepath.Join(dir, "roas.txt")}
	if err := pl.writeROAs(in.ROAs); err != nil {
		return nil, err
	}
	var anns []announcement
	planted := 0
	w, err := newRecWriter(in.RIB)
	if err != nil {
		return nil, err
	}
	w.rec(baseTime, 13, 1, peerIndexTable(prm.Peers))
	for i := 0; i < routes; i++ {
		var entries []ribEntry
		for peer := 0; peer < prm.Peers; peer++ {
			path := pl.legitPath(peer, i)
			if peer == 0 && pl.hasROA[i] && planted < hijacks {
				path = []uint32{peerAS0, attackAS0 + uint32(planted)}
				planted++
			}
			entries = append(entries, ribEntry{peer: uint16(peer), path: path})
			anns = append(anns, announcement{peer: peer, p: pl.prefixes[i], path: path})
		}
		w.rec(baseTime, 13, 2, ribRecord(uint32(i), pl.prefixes[i], entries))
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	in.RIBRoutes = len(anns)
	if in.RIBAlerts, err = pl.expect(anns); err != nil {
		return nil, err
	}
	return in, nil
}

func (pl *plan) writeROAs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, p := range pl.prefixes {
		for _, r := range pl.roas[p] {
			fmt.Fprintf(bw, "%s %d AS%d\n", r.p, r.maxLen, r.origin)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeUpdates writes the BGP4MP stream: legitimate announcements and
// withdrawals with the planted hijacks at seeded positions.
func (pl *plan) writeUpdates(path string, in *Inputs) ([]announcement, error) {
	prm := pl.prm
	kinds := make([]byte, prm.Updates) // 0 background, 'o' origin, 's' sub-prefix, 'd' decoy
	var withROA, withoutROA []int
	for i, has := range pl.hasROA {
		if has {
			withROA = append(withROA, i)
		} else {
			withoutROA = append(withoutROA, i)
		}
	}
	if prm.OriginHijacks+prm.SubHijacks > len(withROA) || prm.Decoys > len(withoutROA) {
		return nil, fmt.Errorf("mrtgen: too few prefixes for the planted hijacks")
	}
	slots := pl.rng.Perm(prm.Updates)
	n := 0
	for _, k := range []struct {
		kind  byte
		count int
	}{{'o', prm.OriginHijacks}, {'s', prm.SubHijacks}, {'d', prm.Decoys}} {
		for j := 0; j < k.count; j++ {
			kinds[slots[n]] = k.kind
			n++
		}
	}
	// Hijacked prefixes are drawn without replacement so every invalid
	// (prefix, origin) pair is announced once.
	pl.rng.Shuffle(len(withROA), func(i, j int) { withROA[i], withROA[j] = withROA[j], withROA[i] })
	pl.rng.Shuffle(len(withoutROA), func(i, j int) { withoutROA[i], withoutROA[j] = withoutROA[j], withoutROA[i] })

	w, err := newRecWriter(path)
	if err != nil {
		return nil, err
	}
	var anns []announcement
	attacker := uint32(attackAS0)
	nextROA, nextDecoy := 0, 0
	for i, kind := range kinds {
		peer := pl.rng.Intn(prm.Peers)
		ts := uint32(baseTime + i/1000)
		var u update
		switch kind {
		case 0:
			j := pl.rng.Intn(prm.Prefixes)
			if pl.rng.Intn(10) == 0 {
				u.withdrawn = []pfx{pl.prefixes[j]}
			} else {
				u.path = pl.legitPath(peer, j)
				u.nlri = []pfx{pl.prefixes[j]}
			}
		case 'o', 's', 'd':
			var p pfx
			switch kind {
			case 'd':
				p = pl.prefixes[withoutROA[nextDecoy]]
				nextDecoy++
			default:
				p = pl.prefixes[withROA[nextROA]]
				nextROA++
				if kind == 's' {
					p = pfx{addr: p.addr | uint32(pl.rng.Intn(4))<<8, plen: 24}
				}
			}
			attacker++
			u.path = []uint32{peerAS0 + uint32(peer), transitAS0 + uint32(pl.rng.Intn(400)), attacker}
			u.nlri = []pfx{p}
		}
		if len(u.nlri) > 0 {
			anns = append(anns, announcement{peer: peer, p: u.nlri[0], path: u.path})
		}
		w.rec(ts, 16, 4, bgp4mp(peerAS0+uint32(peer), uint32(peer), u))
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	in.UpdateCount = prm.Updates
	in.Bytes = w.n
	return anns, nil
}

// --- RFC 6396 / RFC 4271 encoding -------------------------------------

type recWriter struct {
	f   *os.File
	bw  *bufio.Writer
	n   int64
	err error
}

func newRecWriter(path string) (*recWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &recWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// rec writes one MRT common header (RFC 6396 §2) and its body.
func (w *recWriter) rec(ts uint32, typ, subtype uint16, body []byte) {
	if w.err != nil {
		return
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], ts)
	binary.BigEndian.PutUint16(hdr[4:], typ)
	binary.BigEndian.PutUint16(hdr[6:], subtype)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, w.err = w.bw.Write(hdr[:]); w.err == nil {
		_, w.err = w.bw.Write(body)
	}
	w.n += int64(12 + len(body))
}

func (w *recWriter) close() error {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	return w.err
}

func be16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func be32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

func peerAddr(peer uint32) uint32 { return 192<<24 | 2<<8 | (peer + 1) } // 192.0.2.x

// peerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE (RFC 6396
// §4.3.1). Peer Type carries the A bit (0x02, four-octet AS) and a clear
// I bit (IPv4).
func peerIndexTable(peers int) []byte {
	b := be32(nil, 0x7f000001)
	b = be16(b, 0) // view name length
	b = be16(b, uint16(peers))
	for i := 0; i < peers; i++ {
		b = append(b, 0x02)
		b = be32(b, peerAddr(uint32(i)))
		b = be32(b, peerAddr(uint32(i)))
		b = be32(b, peerAS0+uint32(i))
	}
	return b
}

type ribEntry struct {
	peer uint16
	path []uint32
}

// ribRecord is a RIB_IPV4_UNICAST record (RFC 6396 §4.3.2).
func ribRecord(seq uint32, p pfx, entries []ribEntry) []byte {
	b := be32(nil, seq)
	b = appendNLRI(b, p)
	b = be16(b, uint16(len(entries)))
	for _, e := range entries {
		b = be16(b, e.peer)
		b = be32(b, baseTime)
		attrs := pathAttrs(e.path, peerAddr(uint32(e.peer)))
		b = be16(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return b
}

type update struct {
	withdrawn []pfx
	path      []uint32
	nlri      []pfx
}

// bgp4mp is a BGP4MP_MESSAGE_AS4 record body (RFC 6396 §4.4.3) carrying
// one UPDATE (RFC 4271 §4.3).
func bgp4mp(peerAS, peer uint32, u update) []byte {
	b := be32(nil, peerAS)
	b = be32(b, collector)
	b = be16(b, 0) // interface index
	b = be16(b, 1) // AFI IPv4
	b = be32(b, peerAddr(peer))
	b = be32(b, 0x7f000001)

	var wd, nlri, attrs []byte
	for _, p := range u.withdrawn {
		wd = appendNLRI(wd, p)
	}
	for _, p := range u.nlri {
		nlri = appendNLRI(nlri, p)
	}
	if len(u.nlri) > 0 {
		attrs = pathAttrs(u.path, peerAddr(peer))
	}
	body := be16(nil, uint16(len(wd)))
	body = append(body, wd...)
	body = be16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)

	for i := 0; i < 16; i++ {
		b = append(b, 0xff) // marker
	}
	b = be16(b, uint16(19+len(body)))
	b = append(b, 2) // UPDATE
	return append(b, body...)
}

// pathAttrs encodes ORIGIN (IGP), a single AS_SEQUENCE of four-octet
// ASNs and NEXT_HOP, each flagged well-known transitive.
func pathAttrs(path []uint32, nextHop uint32) []byte {
	b := []byte{0x40, 1, 1, 0}
	seg := []byte{2, byte(len(path))}
	for _, as := range path {
		seg = be32(seg, as)
	}
	b = append(b, 0x40, 2, byte(len(seg)))
	b = append(b, seg...)
	b = append(b, 0x40, 3, 4)
	return be32(b, nextHop)
}

func appendNLRI(b []byte, p pfx) []byte {
	b = append(b, p.plen)
	n := int(p.plen+7) / 8
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], p.addr)
	return append(b, a[:n]...)
}

// SortKeys returns the alerts' identity keys in sorted order.
func SortKeys(alerts []Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = a.Key()
	}
	sort.Strings(out)
	return out
}
