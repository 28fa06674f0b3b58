package check

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// curveOf builds the Curve the program would print for values, the way
// stats.CCDF and stats.Summarize define it.
func curveOf(name string, depth int, values []int) Curve {
	s := append([]int(nil), values...)
	sort.Ints(s)
	c := Curve{Name: name, Depth: depth, N: len(s)}
	sum := 0
	for i := 0; i < len(s); {
		c.Points = append(c.Points, Point{X: s[i], Count: len(s) - i})
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		i = j
	}
	for _, v := range s {
		sum += v
	}
	c.Mean = float64(sum) / float64(len(s))
	return c
}

// panel is a seeded valid two-curve panel over ases ASes: a resistant
// tier-1 target and a vulnerable deep one.
func panel(rng *rand.Rand, ases int) ([]Curve, [][]int) {
	var vals [2][]int
	for i := 0; i < 200; i++ {
		vals[0] = append(vals[0], rng.Intn(ases/4))
		vals[1] = append(vals[1], ases/2+rng.Intn(ases/2))
	}
	return []Curve{curveOf("tier-1", 0, vals[0]), curveOf("deep", 5, vals[1])}, vals[:]
}

func wantFailure(t *testing.T, err error, check string) {
	t.Helper()
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("want a %s failure, got %v", check, err)
	}
	if f.Check != check {
		t.Fatalf("want check %s, got %s (%v)", check, f.Check, f)
	}
}

func TestCurvesAcceptCorrectPanel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		curves, vals := panel(rand.New(rand.NewSource(seed)), 1000)
		if err := Curves(curves, 1000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, c := range curves {
			if err := Multiset(c, vals[i]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestMultisetRejectsPerturbedPollution(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		curves, vals := panel(rng, 1000)
		wrong := append([]int(nil), vals[1]...)
		wrong[rng.Intn(len(wrong))]++
		wantFailure(t, Multiset(curves[1], wrong), "fig2.cell-multiset")
		wantFailure(t, Cell("fig2.engine", "cell", wrong[0]+1, wrong[0]), "fig2.engine")
	}
}

func TestCurvesRejectNonMonotoneCCDF(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		curves, _ := panel(rng, 1000)
		pts := curves[1].Points
		i := 1 + rng.Intn(len(pts)-2)
		pts[i].Count = pts[i-1].Count + 1
		wantFailure(t, Curves(curves, 1000), "fig2.ccdf-monotone")
	}
}

func TestCurvesRejectOtherFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		check  string
		mutate func(c []Curve)
	}{
		{"fig2.ccdf-start", func(c []Curve) { c[0].N++ }},
		{"fig2.ccdf-range", func(c []Curve) { c[1].Points[len(c[1].Points)-1].X = 1000 }},
		{"fig2.ccdf-mean", func(c []Curve) { c[1].Mean += 0.5 }},
		{"fig2.depth-finding", func(c []Curve) { c[0].Depth, c[1].Depth = 5, 0 }},
	} {
		curves, _ := panel(rng, 1000)
		tc.mutate(curves)
		wantFailure(t, Curves(curves, 1000), tc.check)
	}
}

func TestEchoRejectsMisEchoedQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		q := Query{Target: rng.Intn(1000), Attacker: rng.Intn(1000), Kind: "origin", Exact: rng.Intn(2) == 0}
		if err := Echo(q, q); err != nil {
			t.Fatal(err)
		}
		bad := q
		switch rng.Intn(4) {
		case 0:
			bad.Target++
		case 1:
			bad.Attacker++
		case 2:
			bad.Kind = "forged-origin"
		default:
			bad.Exact = !bad.Exact
		}
		wantFailure(t, Echo(q, bad), "hijackd.echo")
	}
	p := 5
	wantFailure(t, Exact(Query{}, nil, 10), "hijackd.exact")
	wantFailure(t, Exact(Query{}, &p, 5), "hijackd.exact")
	wantFailure(t, Vulnerability(1, []int{1, 2, 3}, 1, []int{2}, []int{0}, 10), "hijackd.vulnerability")
	if err := Vulnerability(1, []int{1, 2, 3}, 1, []int{2, 3}, []int{0, 4}, 10); err != nil {
		t.Fatal(err)
	}
	wantFailure(t, Served(1, 0), "hijackd.metrics")
}

func TestAlertsRejectDroppedAlert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var want []string
	for i := 0; i < 50; i++ {
		want = append(want, string(rune('a'+rng.Intn(26)))+string(rune('a'+i%26))+string(rune('A'+i/26)))
	}
	got := append([]string(nil), want...)
	rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	if err := Alerts(got, want); err != nil {
		t.Fatal(err)
	}
	drop := rng.Intn(len(got))
	wantFailure(t, Alerts(append(got[:drop:drop], got[drop+1:]...), want), "mrt.alerts")
	wantFailure(t, Alerts(append(got, "extra"), want), "mrt.alerts")
	wantFailure(t, Replay(10, 9, 0, 10), "mrt.delivery")
	wantFailure(t, Replay(10, 10, 1, 10), "mrt.delivery")
}
