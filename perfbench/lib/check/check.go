// Package check holds the benchmark's correctness checks. Each runs after
// its workload's timed phase and reports a typed *Failure naming the
// check, so a wrong answer can never pass as a fast one.
package check

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Failure is one failed correctness check.
type Failure struct {
	Check  string
	Detail string
}

func (f *Failure) Error() string { return "check " + f.Check + ": " + f.Detail }

func fail(check, format string, args ...any) error {
	return &Failure{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// Point is one CCDF point: Count attacks polluted at least X ASes.
type Point struct{ X, Count int }

// Curve is one Figure 2 curve as the program printed it.
type Curve struct {
	Name   string
	Depth  int
	Points []Point
	// N and Mean are the curve's summary: attack count and mean
	// pollution.
	N    int
	Mean float64
}

// Curves checks the properties every Figure 2 panel must have over an
// internet of ases ASes: each CCDF starts at 1 (every attack polluted at
// least its smallest value), never increases, has X within [0, ases),
// and the mean rebuilt from it equals the curve's summary mean; and the
// deepest target is more vulnerable than the tier-1 target, which is the
// figure's finding.
func Curves(curves []Curve, ases int) error {
	if len(curves) < 2 {
		return fail("fig2.curves", "%d curves, want at least 2", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) == 0 || c.N <= 0 {
			return fail("fig2.ccdf-empty", "%s: %d points over %d attacks", c.Name, len(c.Points), c.N)
		}
		if c.Points[0].Count != c.N {
			return fail("fig2.ccdf-start", "%s: CCDF starts at %d/%d, want 1", c.Name, c.Points[0].Count, c.N)
		}
		sum := 0.0
		for i, p := range c.Points {
			if p.X < 0 || p.X >= ases {
				return fail("fig2.ccdf-range", "%s: X=%d outside [0,%d)", c.Name, p.X, ases)
			}
			next := 0
			if i+1 < len(c.Points) {
				q := c.Points[i+1]
				if q.X <= p.X || q.Count > p.Count {
					return fail("fig2.ccdf-monotone", "%s: point %d (%d,%d) then (%d,%d)", c.Name, i, p.X, p.Count, q.X, q.Count)
				}
				next = q.Count
			}
			if p.Count <= next {
				return fail("fig2.ccdf-monotone", "%s: point %d (%d,%d) holds no attack", c.Name, i, p.X, p.Count)
			}
			sum += float64(p.X) * float64(p.Count-next)
		}
		if mean := sum / float64(c.N); math.Abs(mean-c.Mean) > 1e-9*math.Max(1, math.Abs(c.Mean)) {
			return fail("fig2.ccdf-mean", "%s: mean rebuilt from CCDF %.6f, summary says %.6f", c.Name, mean, c.Mean)
		}
	}
	deep, tier1 := curves[0], curves[0]
	for _, c := range curves {
		if c.Depth > deep.Depth {
			deep = c
		}
		if c.Depth < tier1.Depth {
			tier1 = c
		}
	}
	if deep.Mean <= tier1.Mean {
		return fail("fig2.depth-finding", "deepest target %s mean %.1f does not exceed %s mean %.1f", deep.Name, deep.Mean, tier1.Name, tier1.Mean)
	}
	return nil
}

// Multiset checks that the pollution values re-solved for every attack of
// a curve are exactly the multiset its CCDF encodes.
func Multiset(c Curve, values []int) error {
	want := map[int]int{}
	for i, p := range c.Points {
		next := 0
		if i+1 < len(c.Points) {
			next = c.Points[i+1].Count
		}
		want[p.X] += p.Count - next
	}
	got := map[int]int{}
	for _, v := range values {
		got[v]++
	}
	keys := map[int]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var diff []int
	for k := range keys {
		if want[k] != got[k] {
			diff = append(diff, k)
		}
	}
	if len(diff) > 0 {
		sort.Ints(diff)
		k := diff[0]
		return fail("fig2.cell-multiset", "%s: %d pollution values differ from the CCDF; first X=%d: CCDF has %d attacks, re-solve %d",
			c.Name, len(diff), k, want[k], got[k])
	}
	return nil
}

// Cell checks one re-solved cell against its reference.
func Cell(check, label string, got, want int) error {
	if got != want {
		return fail(check, "%s: pollution %d, reference %d", label, got, want)
	}
	return nil
}

// Query is the identity a hijackd reply must echo.
type Query struct {
	Target, Attacker int
	Kind             string
	Exact            bool
}

// Echo checks that a /v1/attack reply answers the query that was sent.
func Echo(sent, got Query) error {
	if sent != got {
		return fail("hijackd.echo", "sent %+v, reply echoes %+v", sent, got)
	}
	return nil
}

// Exact checks the exact tier's fields: present, and the pollution a
// valid AS count.
func Exact(q Query, pollution *int, ases int) error {
	if pollution == nil {
		return fail("hijackd.exact", "%+v: exact reply without pollution", q)
	}
	if *pollution < 0 || *pollution >= ases {
		return fail("hijackd.exact", "%+v: pollution %d outside [0,%d)", q, *pollution, ases)
	}
	return nil
}

// Vulnerability checks a /v1/vulnerability reply: one result per
// requested attacker other than the target, in request order.
func Vulnerability(target int, attackers []int, gotTarget int, gotAttackers []int, pollution []int, ases int) error {
	var want []int
	for _, a := range attackers {
		if a != target {
			want = append(want, a)
		}
	}
	if gotTarget != target {
		return fail("hijackd.vulnerability", "sent target %d, reply echoes %d", target, gotTarget)
	}
	if fmt.Sprint(gotAttackers) != fmt.Sprint(want) || len(pollution) != len(want) {
		return fail("hijackd.vulnerability", "target %d: attackers %v, reply %v with %d results", target, want, gotAttackers, len(pollution))
	}
	for i, p := range pollution {
		if p < 0 || p >= ases {
			return fail("hijackd.vulnerability", "target %d attacker %d: pollution %d outside [0,%d)", target, want[i], p, ases)
		}
	}
	return nil
}

// Served checks hijackd's own counters after the run: nothing shed,
// nothing failed.
func Served(shed, errors int64) error {
	if shed != 0 || errors != 0 {
		return fail("hijackd.metrics", "/metrics reports %d shed and %d errors", shed, errors)
	}
	return nil
}

// Alerts checks that the alerts mrtreplay printed are exactly the
// expected set.
func Alerts(got, want []string) error {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	var missing, extra []string
	i, j := 0, 0
	for i < len(g) || j < len(w) {
		switch {
		case j == len(w) || (i < len(g) && g[i] < w[j]):
			extra = append(extra, g[i])
			i++
		case i == len(g) || w[j] < g[i]:
			missing = append(missing, w[j])
			j++
		default:
			i++
			j++
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		first := append(missing, extra...)[0]
		return fail("mrt.alerts", "%d expected alerts missing, %d unexpected; first: %s", len(missing), len(extra), strings.TrimSpace(first))
	}
	return nil
}

// Replay checks mrtreplay's delivery counters: every dispatched update
// was sent and none was shed.
func Replay(dispatched, sent, shed, want int) error {
	if dispatched != want || sent != dispatched || shed != 0 {
		return fail("mrt.delivery", "%d updates in the input, %d dispatched, %d sent, %d shed", want, dispatched, sent, shed)
	}
	return nil
}
