package sasimi

import (
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/sim"
)

// Candidate is one substitution under consideration: replace every fanout
// of Target by Sub (inverted if Inverted) or by a constant when Sub is
// InvalidNode and Const is set. It is the caller-facing view of a gathered
// candidate (EstimateAll builds it, in the candidate list's order: by
// Target, then Sub, constants first, constant 1 before constant 0, plain
// before inverted); the flow itself keeps the compact cand records and
// the scored entries.
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
// the list order's last key (see idCompare), between candidates of one
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

// cand is a gathered candidate as the candidate list stores it, in 24
// bytes: the identity, the DiffProb rank 2d+s of the run's admission (see
// admission), which orders candidates exactly as their DiffProbs do, and
// the area gain. A candidate list holds one per candidate; the scores of
// an iteration live in scored entries beside it.
type cand struct {
	target, sub circuit.NodeID // sub is InvalidNode for the constants
	rank        uint32
	kind        candKind
	gain        float64
}

func (c *cand) isConst() bool { return c.kind >= kindConst1 }

// scored is one feasible candidate's estimate in an iteration: the index
// of its cand in the list, the estimated (or, once verified, exact) error
// increase, the ranking score and the exactness certificate.
type scored struct {
	idx   int32
	exact bool
	delta float64
	score float64
}

// substituteValue returns the value vector the target would take, reusing
// scratch for the inverted/constant cases.
func (c *cand) substituteValue(vals *sim.Values, scratch *bitvec.Vec) *bitvec.Vec {
	switch c.kind {
	case kindConst0:
		scratch.Zero()
		return scratch
	case kindConst1:
		scratch.Zero()
		scratch.Fill()
		return scratch
	case kindInverted:
		scratch.Not(vals.Node(c.sub))
		return scratch
	default:
		return vals.Node(c.sub)
	}
}

// view returns the caller-facing Candidate of a stored record, without
// scores. DiffProb is the admission test's own float expression of the
// record's difference count: d/M for the plain and constant-0 forms,
// 1 − (M−d)/M for the inverted and constant-1 forms, with d = rank/2.
func (a *admission) view(c *cand) Candidate {
	d := int(c.rank >> 1)
	fm := float64(a.m)
	v := Candidate{Target: c.target, Sub: c.sub, AreaGain: c.gain}
	switch c.kind {
	case kindPlain, kindConst0:
		v.DiffProb = float64(d) / fm
	default:
		v.DiffProb = 1 - float64(a.m-d)/fm
	}
	v.Inverted = c.kind == kindInverted
	v.Const = c.isConst()
	v.ConstVal = c.kind == kindConst1
	return v
}
