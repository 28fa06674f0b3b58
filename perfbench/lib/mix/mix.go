// Package mix builds the hijackd-mix query sequence from a seed: a fixed
// block of query shapes, shuffled per block, over a hot target set.
package mix

import (
	"encoding/json"
	"math/rand"
)

// Shape is one query form of the mix.
type Shape int

const (
	// Undefended is an exact origin-hijack /v1/attack with no defense.
	Undefended Shape = iota
	// ROV is an exact origin hijack with ROV on the top-degree core.
	ROV
	// ForgedASPA is an exact forged-origin hijack with ROV and ASPA on
	// the core: the variant whose answer depends on path validation.
	ForgedASPA
	// Estimate is an estimator-only /v1/attack ("exact": false).
	Estimate
	// Vulnerability is a small multi-cell /v1/vulnerability request.
	Vulnerability
)

// Block is the mix's fixed make-up: every block of len(Block) queries
// holds exactly these shapes, so every run and every client sends the
// same shares whatever the seed. No record of operators' traffic exists
// to take the shares from, so each shape gets an equal one; that is an
// assumption, not a measurement.
var Block = []Shape{Undefended, ROV, ForgedASPA, Estimate, Vulnerability}

// VulnAttackers is the attacker count of a vulnerability request, a
// small multi-cell request; like the shares, an assumption.
const VulnAttackers = 4

// Query is one request of the mix.
type Query struct {
	Shape     Shape
	Target    int
	Attacker  int
	Attackers []int
}

// Defense is the wire form of a deployed defense.
type Defense struct {
	ROV  []int `json:"rov,omitempty"`
	ASPA []int `json:"aspa,omitempty"`
}

// AttackRequest is the /v1/attack body.
type AttackRequest struct {
	Target   int     `json:"target"`
	Attacker int     `json:"attacker"`
	Kind     string  `json:"kind,omitempty"`
	Defense  Defense `json:"defense,omitempty"`
	Exact    bool    `json:"exact,omitempty"`
}

// VulnerabilityRequest is the /v1/vulnerability body.
type VulnerabilityRequest struct {
	Target    int   `json:"target"`
	Attackers []int `json:"attackers"`
}

// Kind is the attack kind a shape queries.
func (q Query) Kind() string {
	if q.Shape == ForgedASPA {
		return "forged-origin"
	}
	return "origin"
}

// Exact reports whether the shape asks for the solver tier.
func (q Query) Exact() bool { return q.Shape != Estimate }

// Path and Body render the request; core is the top-degree node set.
func (q Query) Path() string {
	if q.Shape == Vulnerability {
		return "/v1/vulnerability"
	}
	return "/v1/attack"
}

// Body renders the request body.
func (q Query) Body(core []int) ([]byte, error) {
	if q.Shape == Vulnerability {
		return json.Marshal(VulnerabilityRequest{Target: q.Target, Attackers: q.Attackers})
	}
	req := AttackRequest{Target: q.Target, Attacker: q.Attacker, Exact: q.Exact()}
	switch q.Shape {
	case ROV:
		req.Defense.ROV = core
	case ForgedASPA:
		req.Kind = "forged-origin"
		req.Defense.ROV = core
		req.Defense.ASPA = core
	}
	return json.Marshal(req)
}

// HotTargets draws the hot target set: hot distinct nodes of n.
func HotTargets(seed int64, n, hot int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return rng.Perm(n)[:hot]
}

// Sequence returns client's blocks×len(Block) queries over targets.
func Sequence(seed int64, client, blocks, n int, targets []int) []Query {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	attacker := func(t int) int {
		for {
			if a := rng.Intn(n); a != t {
				return a
			}
		}
	}
	out := make([]Query, 0, blocks*len(Block))
	for b := 0; b < blocks; b++ {
		shapes := append([]Shape(nil), Block...)
		rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
		for _, s := range shapes {
			q := Query{Shape: s, Target: targets[rng.Intn(len(targets))]}
			if s == Vulnerability {
				for i := 0; i < VulnAttackers; i++ {
					q.Attackers = append(q.Attackers, attacker(q.Target))
				}
			} else {
				q.Attacker = attacker(q.Target)
			}
			out = append(out, q)
		}
	}
	return out
}
