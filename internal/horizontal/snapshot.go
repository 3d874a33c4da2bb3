package horizontal

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Checkpoint serialization for hosted horizontal sites: the positional
// encoding (internal/wire) of an hSiteState, written only to checkpoint
// files — never to a metered wire stream. The state is emitted in one
// canonical order (tuples by id, rules in installation order, groups and
// classes by ascending key, members by id), so equal site states are
// equal bytes.

// snapRule pins one installed rule with the exact dense index the live
// site assigned it (seedRules bases indexes on the instantaneous
// ruleOrder length and dropRules leaves gaps, so indexes are
// history-dependent and must be persisted, not recomputed), and carries
// a variable rule's class index.
type snapRule struct {
	Rule   cfd.CFD
	Idx    cfd.RuleIdx
	Groups []snapGroup
}

// snapGroup is the classes sharing one [t]_X. The codec has no arrays,
// so the 16-byte codes travel as byte strings.
type snapGroup struct {
	DX      []byte
	Classes []snapClass
}

// snapClass is one equivalence class [t]_{X∪{B}} with its violation
// flag and member tuple ids.
type snapClass struct {
	DB      []byte
	InV     bool
	Members []int64
}

// hSiteState is the full checkpointable state of a horizontal site.
type hSiteState struct {
	Frag  []relation.Tuple
	Rules []snapRule
}

// sortedCodes returns m's keys in ascending byte order.
func sortedCodes[V any](m map[code]V) []code {
	keys := make([]code, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		slices.SortFunc(keys, func(a, b code) int { return bytes.Compare(a[:], b[:]) })
	}
	return keys
}

// snapshotState captures the site's fragment, rules and class indexes
// in the canonical order.
func (s *site) snapshotState() ([]byte, error) {
	st := hSiteState{Frag: s.frag.Tuples(), Rules: make([]snapRule, 0, len(s.ruleOrder))}
	for _, r := range s.ruleOrder {
		sr := snapRule{Rule: *r.CFD, Idx: r.Idx}
		// The key slices are not reused: the state's DX and DB alias them
		// until it is encoded.
		dxs := sortedCodes(r.groups) // none under a constant rule
		for i := range dxs {
			g := r.groups[dxs[i]]
			sg := snapGroup{DX: dxs[i][:], Classes: make([]snapClass, 0, len(g.classes))}
			for j := range g.classes { // already in ascending B order
				c := &g.classes[j]
				members := appendIDs(make([]int64, 0, len(c.members)), c.members)
				sg.Classes = append(sg.Classes, snapClass{DB: c.db[:], InV: c.inV, Members: members})
			}
			sr.Groups = append(sr.Groups, sg)
		}
		st.Rules = append(st.Rules, sr)
	}
	data, err := wire.Append(make([]byte, 0, s.snapLen+s.snapLen/8), &st)
	if err != nil {
		return nil, fmt.Errorf("horizontal: snapshot site %d: %w", s.id, err)
	}
	s.snapLen = len(data)
	return data, nil
}

// restoreState rebuilds the site from a checkpointed snapshot, replacing
// all current state. Rules recompile against the site's own schema with
// their persisted indexes.
func (s *site) restoreState(data []byte) error {
	fail := func(err error) error { return fmt.Errorf("horizontal: restore site %d: %w", s.id, err) }
	var st hSiteState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fail(err)
	}
	s.frag = relation.New(s.schema)
	s.rules = make(map[string]*siteRule, len(st.Rules))
	s.ruleOrder = nil
	for _, t := range st.Frag {
		if err := s.frag.Insert(t); err != nil {
			return fail(err)
		}
	}
	for i := range st.Rules {
		sr := &st.Rules[i]
		if err := sr.Rule.Validate(s.schema); err != nil {
			return fail(err)
		}
		if _, dup := s.rules[sr.Rule.ID]; dup {
			return fail(fmt.Errorf("rule %q twice", sr.Rule.ID))
		}
		c := cfd.Compile(s.schema, &sr.Rule, sr.Idx)
		s.install(&c)
		r := s.ruleOrder[len(s.ruleOrder)-1]
		if c.ConstRHS {
			if len(sr.Groups) > 0 {
				return fail(fmt.Errorf("groups under constant rule %q", c.ID))
			}
			continue
		}
		for _, g := range sr.Groups {
			for _, cl := range g.Classes {
				if len(g.DX) != codeLen || len(cl.DB) != codeLen {
					return fail(fmt.Errorf("rule %q: class key of %d and %d bytes", c.ID, len(g.DX), len(cl.DB)))
				}
				if len(cl.Members) == 0 {
					return fail(fmt.Errorf("rule %q: class without members", c.ID))
				}
				hc, _ := r.ensureGroup(code(g.DX)).ensure(code(cl.DB))
				hc.inV = cl.InV
				for _, id := range cl.Members {
					hc.add(relation.TupleID(id))
				}
			}
		}
	}
	return nil
}
