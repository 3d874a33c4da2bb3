package centralized

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// AddRules brings new rules into force on the maintainer: it validates
// them against the schema and current rule set, builds the new rules'
// group indexes from the maintained relation, and marks exactly the new
// rules' violations. Existing rules' state is untouched; the returned ∆V
// holds the seeded marks. The centralized maintainer is the oracle the
// distributed engines' seed-delta rounds are tested against.
func (inc *Incremental) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return cfd.NewDelta(), nil
	}
	all := append(append([]cfd.CFD(nil), inc.rules...), rules...)
	if err := cfd.ValidateAll(inc.rel.Schema, all); err != nil {
		return nil, err
	}
	comp := cfd.CompileAll(inc.rel.Schema, all)
	delta := cfd.NewDelta()

	if inc.gst != nil {
		// Stored mode: seed each new rule's group index by streaming
		// the maintained relation through the same incremental insert
		// analysis — inserting every tuple into an initially empty
		// group index marks exactly the members of multi-class groups.
		first := len(inc.rules)
		inc.rules, inc.comp = all, comp
		var err error
		for i := first; i < len(all); i++ {
			r := &inc.comp[i]
			inc.gst.addRule(r.ConstRHS)
			inc.rel.Each(func(t relation.Tuple) bool {
				if r.ConstRHS {
					if r.SingleViolation(t) {
						delta.Add(t.ID, r.ID)
					}
					return true
				}
				if !r.MatchesLHS(t) {
					return true
				}
				err = inc.applyRuleStored(i, relation.Update{Kind: relation.Insert, Tuple: t}, delta)
				return err == nil
			})
			if err != nil {
				return nil, err
			}
		}
		if err := inc.storeErr(); err != nil {
			return nil, err
		}
		delta.Apply(inc.v)
		if err := inc.Flush(); err != nil {
			return nil, err
		}
		return delta, nil
	}

	for i := len(inc.rules); i < len(all); i++ {
		r := &comp[i]
		if r.ConstRHS {
			inc.groups = append(inc.groups, nil)
			inc.rel.Each(func(t relation.Tuple) bool {
				if r.SingleViolation(t) {
					delta.Add(t.ID, r.ID)
				}
				return true
			})
			continue
		}
		byRule := make(map[string]map[string]map[relation.TupleID]struct{})
		inc.rel.Each(func(t relation.Tuple) bool {
			if !r.MatchesLHS(t) {
				return true
			}
			inc.keyBuf = t.AppendKey(inc.keyBuf[:0], r.LHSCols)
			group := byRule[string(inc.keyBuf)]
			if group == nil {
				group = make(map[string]map[relation.TupleID]struct{})
				byRule[string(inc.keyBuf)] = group
			}
			b := t.Values[r.RHSCol]
			if group[b] == nil {
				group[b] = make(map[relation.TupleID]struct{})
			}
			group[b][t.ID] = struct{}{}
			return true
		})
		inc.groups = append(inc.groups, byRule)
		for _, group := range byRule {
			if len(group) < 2 {
				continue
			}
			for _, cls := range group {
				for id := range cls {
					delta.Add(id, r.ID)
				}
			}
		}
	}

	inc.rules = all
	inc.comp = comp
	delta.Apply(inc.v)
	return delta, nil
}

// RemoveRules retires rules by id: their group indexes are dropped and
// their violation marks removed from V. The returned ∆V holds exactly
// the retired marks.
func (inc *Incremental) RemoveRules(ids []string) (*cfd.Delta, error) {
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	drop := make(map[string]bool, len(ids))
	for _, id := range ids {
		if drop[id] {
			return nil, fmt.Errorf("centralized: rule %q listed twice: %w", id, xerr.ErrDuplicateRule)
		}
		drop[id] = true
	}
	found := 0
	for i := range inc.rules {
		if drop[inc.rules[i].ID] {
			found++
		}
	}
	if found != len(ids) {
		return nil, fmt.Errorf("centralized: removing unknown rule: %w", xerr.ErrUnknownRule)
	}

	delta := inc.v.RetiredDelta(ids)
	if inc.gst != nil {
		var rules []cfd.CFD
		var tags []uint32
		for i := range inc.rules {
			if drop[inc.rules[i].ID] {
				if inc.gst.tags[i] != 0 {
					if err := inc.gst.purgeRule(inc.gst.tags[i]); err != nil {
						return nil, err
					}
				}
				continue
			}
			rules = append(rules, inc.rules[i])
			tags = append(tags, inc.gst.tags[i])
		}
		inc.rules = rules
		inc.comp = cfd.CompileAll(inc.rel.Schema, rules)
		inc.gst.tags = tags
		delta.Apply(inc.v)
		if err := inc.Flush(); err != nil {
			return nil, err
		}
		return delta, nil
	}

	var rules []cfd.CFD
	var groups []map[string]map[string]map[relation.TupleID]struct{}
	for i := range inc.rules {
		if drop[inc.rules[i].ID] {
			continue
		}
		rules = append(rules, inc.rules[i])
		groups = append(groups, inc.groups[i])
	}
	inc.rules = rules
	inc.comp = cfd.CompileAll(inc.rel.Schema, rules)
	inc.groups = groups
	delta.Apply(inc.v)
	return delta, nil
}
