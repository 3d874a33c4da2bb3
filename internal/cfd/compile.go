package cfd

import (
	"repro/internal/relation"
)

// Compiled is a CFD resolved once against a schema: every attribute is a
// column index and the pattern constants are pre-split from the
// wildcards, so the per-tuple hot paths (MatchesLHS, SingleViolation,
// grouping-key construction) never consult the schema's name→index map.
//
// A Compiled is a view over its source rule — the *CFD is embedded so
// ID, patterns and the slow-path methods stay reachable — plus the
// dense RuleIdx assigned by CompileAll, which aligns with the rule's
// interned index in any Violations/Delta pre-seeded via InternRules.
type Compiled struct {
	*CFD
	// Idx is the rule's dense index within its compiled set.
	Idx RuleIdx

	// LHSCols are the column indexes of LHS, positionally aligned.
	LHSCols []int
	// RHSCol is the column index of RHS.
	RHSCol int
	// ConstCols/ConstVals are the LHS columns whose pattern entry is a
	// constant, with the constants. MatchesLHS only inspects these:
	// wildcard positions match any value.
	ConstCols []int
	ConstVals []string
	// ConstRHS mirrors IsConstant(): tp[B] is a constant.
	ConstRHS bool
}

// Compile resolves one rule against s. Like Schema.MustIndex it panics
// on attributes absent from the schema; validate rules first (the system
// constructors all call ValidateAll).
func Compile(s *relation.Schema, rule *CFD, idx RuleIdx) Compiled {
	c := Compiled{
		CFD:      rule,
		Idx:      idx,
		LHSCols:  make([]int, len(rule.LHS)),
		RHSCol:   s.MustIndex(rule.RHS),
		ConstRHS: rule.IsConstant(),
	}
	for i, a := range rule.LHS {
		c.LHSCols[i] = s.MustIndex(a)
		if rule.LHSPattern[i] != Wildcard {
			c.ConstCols = append(c.ConstCols, c.LHSCols[i])
			c.ConstVals = append(c.ConstVals, rule.LHSPattern[i])
		}
	}
	return c
}

// CompileAll compiles every rule, assigning dense RuleIdx values in rule
// order. The returned slice aliases rules — keep it alive alongside.
func CompileAll(s *relation.Schema, rules []CFD) []Compiled {
	out := make([]Compiled, len(rules))
	for i := range rules {
		out[i] = Compile(s, &rules[i], RuleIdx(i))
	}
	return out
}

// MatchesLHS reports whether t[X] ≍ tp[X], touching only the constant
// pattern positions. Allocation-free.
func (c *Compiled) MatchesLHS(t relation.Tuple) bool {
	for i, col := range c.ConstCols {
		if t.Values[col] != c.ConstVals[i] {
			return false
		}
	}
	return true
}

// SingleViolation reports whether t alone violates the rule (constant
// CFDs only). Allocation-free.
func (c *Compiled) SingleViolation(t relation.Tuple) bool {
	return c.ConstRHS && c.MatchesLHS(t) && t.Values[c.RHSCol] != c.RHSPattern
}
