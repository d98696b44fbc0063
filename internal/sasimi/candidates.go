package sasimi

import "batchals/internal/circuit"

// Candidate is one substitution under consideration: replace every fanout
// of Target by Sub (inverted if Inverted) or by a constant when Sub is
// InvalidNode and Const is set. It is the caller-facing view of a gathered
// candidate (EstimateAll builds it, in the candidate list's order: by
// Target, then Sub, constants first, constant 1 before constant 0, plain
// before inverted). The flow keeps no Candidate: it keeps the candidate
// store, 8 bytes a candidate with the target and the gain figures shared
// per target (see store.go), and scored entries for the feasible ones.
type Candidate struct {
	Target   circuit.NodeID
	Sub      circuit.NodeID // InvalidNode for constant substitution
	Inverted bool           // substitute with NOT(Sub)
	Const    bool           // constant substitution; ConstVal gives the value
	ConstVal bool

	DiffProb float64 // local difference probability on the pattern set
	AreaGain float64 // area reclaimed by the substitution (may include inverter cost)
	Delta    float64 // estimated increased error (filled by EstimateAll)
	Score    float64 // AreaGain / max(Delta, floor) ranking value

	// Exact is set (alongside Delta) when the estimate carries a
	// structural exactness certificate: for the batch estimator, the
	// target's output cone is reconvergence-free, so Delta equals the
	// exact resimulated value on this pattern set; for the full estimator
	// it is always true, for the local estimator never.
	Exact bool
}

// candKind is how a stored candidate substitutes its target. Its order is
// the list order's last key (see mkRec), between candidates of one
// target and one substitute: plain before inverted, and constant 1 before
// constant 0 (constants carry sub == InvalidNode, so they never tie with
// pairs).
type candKind uint8

const (
	kindPlain candKind = iota
	kindInverted
	kindConst1
	kindConst0
)

// scored is one feasible candidate's estimate in an iteration: the list
// position of its record in the candidate store, the estimated (or, once
// verified, exact) error increase, the ranking score and the exactness
// certificate.
type scored struct {
	idx   int32
	exact bool
	delta float64
	score float64
}

// view returns the caller-facing Candidate of a stored candidate, without
// scores. DiffProb is the admission test's own float expression of the
// record's difference count: d/M for the plain and constant-0 forms,
// 1 − (M−d)/M for the inverted and constant-1 forms, with d = rank/2.
func (a *admission) view(c *choice) Candidate {
	d := int(c.rank >> 1)
	fm := float64(a.m)
	v := Candidate{Target: c.target, Sub: c.sub(), AreaGain: c.gain}
	switch c.kind() {
	case kindPlain, kindConst0:
		v.DiffProb = float64(d) / fm
	default:
		v.DiffProb = 1 - float64(a.m-d)/fm
	}
	v.Inverted = c.kind() == kindInverted
	v.Const = c.isConst()
	v.ConstVal = c.kind() == kindConst1
	return v
}
