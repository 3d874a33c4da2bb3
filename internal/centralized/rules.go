package centralized

import (
	"slices"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// setRules puts all in force: the compiled forms and each rule's group
// state, kept by id for a rule already in force and empty for a new one
// (a stored maintainer gives a new variable rule the next tag). The
// constructors, AddRules and RemoveRules all come through here; rule
// validity is the caller's to check.
func (inc *Incremental) setRules(all []cfd.CFD) {
	old := make(map[string]int, len(inc.rules))
	for i := range inc.rules {
		old[inc.rules[i].ID] = i
	}
	comp := cfd.CompileAll(inc.rel.Schema, all)
	groups := make([]map[string]map[string]map[relation.TupleID]struct{}, len(comp))
	tags := make([]uint32, len(comp))
	for i := range comp {
		c := &comp[i]
		j, kept := old[c.ID]
		switch {
		case kept && inc.gst != nil:
			tags[i] = inc.gst.tags[j]
		case kept:
			groups[i] = inc.groups[j]
		case inc.gst != nil:
			tags[i] = inc.gst.newTag(c.ConstRHS)
		case !c.ConstRHS:
			groups[i] = make(map[string]map[string]map[relation.TupleID]struct{})
		}
	}
	inc.rules, inc.comp, inc.groups = all, comp, groups
	if inc.gst != nil {
		inc.gst.tags = tags
	}
}

// AddRules brings new rules into force on the maintainer: each new rule
// is seeded by streaming the maintained relation through that rule's
// Fig. 4 insert analysis — inserting every tuple into an initially empty
// group index marks exactly the members of multi-class groups. Existing
// rules' state is untouched; the returned ∆V holds the seeded marks. The
// rules must validate beside those in force (cfd.ValidateAll); the caller
// checks. The centralized maintainer is the oracle the distributed
// engines' seed-delta rounds are tested against.
func (inc *Incremental) AddRules(rules []cfd.CFD) (*cfd.Delta, error) {
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	before := inc.v.Seal()
	first := len(inc.rules)
	inc.setRules(append(slices.Clip(inc.rules), rules...))
	var err error
	for i := first; i < len(inc.comp); i++ {
		inc.rel.Each(func(t relation.Tuple) bool {
			if inc.comp[i].MatchesLHS(t) {
				err = inc.applyRule(i, relation.Update{Kind: relation.Insert, Tuple: t})
			}
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc.v.DeltaSince(&before), nil
}

// RemoveRules retires rules by id: their group indexes are dropped and
// their violation marks removed from V. The returned ∆V holds exactly
// the retired marks. Each id must name a rule in force, once; the caller
// checks.
func (inc *Incremental) RemoveRules(ids []string) (*cfd.Delta, error) {
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	before := inc.v.Seal()
	var kept []cfd.CFD
	for i := range inc.rules {
		if !slices.Contains(ids, inc.rules[i].ID) {
			kept = append(kept, inc.rules[i])
		} else if inc.gst != nil && inc.gst.tags[i] != 0 {
			if err := inc.gst.purgeRule(inc.gst.tags[i]); err != nil {
				return nil, err
			}
		}
	}
	inc.setRules(kept)
	inc.v.ClearRules(ids)
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc.v.DeltaSince(&before), nil
}
