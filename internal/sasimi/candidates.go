package sasimi

import (
	"batchals/internal/bitvec"
	"batchals/internal/circuit"
	"batchals/internal/sim"
)

// Candidate is one substitution under consideration: replace every fanout
// of Target by Sub (inverted if Inverted) or by a constant when Sub is
// InvalidNode and Const is set.
type Candidate struct {
	Target   circuit.NodeID
	Sub      circuit.NodeID // InvalidNode for constant substitution
	Inverted bool           // substitute with NOT(Sub)
	Const    bool           // constant substitution; ConstVal gives the value
	ConstVal bool

	DiffProb float64 // local difference probability on the pattern set
	AreaGain float64 // area reclaimed by the substitution (may include inverter cost)
	Delta    float64 // estimated increased error (filled by the flow)
	Score    float64 // AreaGain / max(Delta, floor) ranking value

	// Exact is set (alongside Delta) when the estimate carries a
	// structural exactness certificate: for the batch estimator, the
	// target's output cone is reconvergence-free, so Delta equals the
	// exact resimulated value on this pattern set; for the full estimator
	// it is always true, for the local estimator never.
	Exact bool
}

// substituteValue returns the value vector the target would take, reusing
// scratch for the inverted/constant cases.
func (c *Candidate) substituteValue(vals *sim.Values, scratch *bitvec.Vec) *bitvec.Vec {
	switch {
	case c.Const:
		scratch.Zero()
		if c.ConstVal {
			scratch.Fill()
		}
		return scratch
	case c.Inverted:
		scratch.Not(vals.Node(c.Sub))
		return scratch
	default:
		return vals.Node(c.Sub)
	}
}
