package centralized

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// Incremental maintains V(Σ, D) for a single-site relation under batch
// updates in O(|∆D| + |∆V|): the centralized counterpart of incVer/incHor
// that the paper cites from Fan et al. (TODS 2008). It uses the same
// Fig. 4 case analysis over in-memory equivalence groups, with no
// distribution and therefore no shipment.
//
// It also serves as the reference implementation of the case analysis:
// the distributed engines are tested against Detect, and Detect against
// BruteForce; Incremental closes the loop by checking the *incremental*
// logic in isolation from any distribution machinery.
type Incremental struct {
	rel   *relation.Relation
	rules []cfd.CFD
	comp  []cfd.Compiled
	v     *cfd.Violations

	// groups: per variable rule (by compiled index), X-key → B-value →
	// member set. X keys use the length-prefixed byte encoding, probed
	// through a reused scratch buffer.
	groups []map[string]map[string]map[relation.TupleID]struct{}
	keyBuf []byte

	// gst, when non-nil, replaces groups with the out-of-core group
	// index (storedgroups.go); built by NewIncrementalStored.
	gst *storedGroups
}

// NewIncremental indexes rel and computes the initial V(Σ, D). The
// relation is cloned: the caller's copy is not mutated by Apply.
func NewIncremental(rel *relation.Relation, rules []cfd.CFD) (*Incremental, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	inc := &Incremental{
		rel:   relation.New(rel.Schema),
		rules: append([]cfd.CFD(nil), rules...),
		v:     cfd.NewViolations(),
	}
	inc.v.InternRules(inc.rules)
	inc.comp = cfd.CompileAll(rel.Schema, inc.rules)
	inc.groups = make([]map[string]map[string]map[relation.TupleID]struct{}, len(inc.comp))
	for i := range inc.comp {
		if !inc.comp[i].ConstRHS {
			inc.groups[i] = make(map[string]map[string]map[relation.TupleID]struct{})
		}
	}
	var err error
	rel.Each(func(t relation.Tuple) bool {
		var delta *cfd.Delta
		delta, err = inc.applyUnit(relation.Update{Kind: relation.Insert, Tuple: t})
		if err != nil {
			return false
		}
		delta.Apply(inc.v)
		return true
	})
	if err != nil {
		return nil, err
	}
	return inc, nil
}

// Violations returns the maintained violation set.
func (inc *Incremental) Violations() *cfd.Violations { return inc.v }

// Relation returns the maintained relation (D ⊕ all applied batches).
func (inc *Incremental) Relation() *relation.Relation { return inc.rel }

// Apply processes a batch update and returns ∆V. A stored maintainer
// flushes its stores after the batch: one Apply is one protocol round,
// so write-back batching aligns with rounds.
func (inc *Incremental) Apply(updates relation.UpdateList) (*cfd.Delta, error) {
	if err := inc.storeErr(); err != nil {
		return nil, err
	}
	delta := cfd.NewDelta()
	for _, u := range updates.Normalize() {
		ud, err := inc.applyUnit(u)
		if err != nil {
			if serr := inc.storeErr(); serr != nil {
				return nil, serr
			}
			return nil, err
		}
		ud.Apply(inc.v)
		delta.Merge(ud)
	}
	if inc.gst != nil {
		if err := inc.Flush(); err != nil {
			return nil, err
		}
	}
	return delta, nil
}

// storeErr returns the tuple store's sticky failure wrapped in
// xerr.ErrStoreCorrupt, nil while the store is healthy (always, in
// memory). Every write checks it first, so once a read or write of the
// store has failed, every later write fails the same way.
func (inc *Incremental) storeErr() error {
	if err := inc.rel.StoreErr(); err != nil {
		return fmt.Errorf("centralized: tuple store: %w: %w", xerr.ErrStoreCorrupt, err)
	}
	return nil
}

func (inc *Incremental) applyUnit(u relation.Update) (*cfd.Delta, error) {
	delta := cfd.NewDelta()
	switch u.Kind {
	case relation.Insert:
		if err := inc.rel.Insert(u.Tuple); err != nil {
			return nil, err
		}
	case relation.Delete:
		if _, ok := inc.rel.Get(u.Tuple.ID); !ok {
			return nil, fmt.Errorf("centralized: delete of missing tuple %d", u.Tuple.ID)
		}
	}

	for i := range inc.comp {
		r := &inc.comp[i]
		if !r.MatchesLHS(u.Tuple) {
			continue
		}
		if r.ConstRHS {
			if u.Tuple.Values[r.RHSCol] != r.RHSPattern {
				if u.Kind == relation.Insert {
					delta.Add(u.Tuple.ID, r.ID)
				} else {
					delta.Remove(u.Tuple.ID, r.ID)
				}
			}
			continue
		}
		if inc.gst != nil {
			if err := inc.applyRuleStored(i, u, delta); err != nil {
				return nil, err
			}
			continue
		}

		inc.keyBuf = u.Tuple.AppendKey(inc.keyBuf[:0], r.LHSCols)
		bVal := u.Tuple.Values[r.RHSCol]
		byRule := inc.groups[i]
		group := byRule[string(inc.keyBuf)]

		switch u.Kind {
		case relation.Insert:
			classSize := len(group[bVal])
			distinct := len(group)
			// Fig. 4 incVIns case analysis.
			switch {
			case classSize > 0:
				if distinct >= 2 {
					delta.Add(u.Tuple.ID, r.ID)
				}
			case distinct >= 2:
				delta.Add(u.Tuple.ID, r.ID)
			case distinct == 1:
				delta.Add(u.Tuple.ID, r.ID)
				for b := range group {
					for id := range group[b] {
						delta.Add(id, r.ID)
					}
				}
			}
			if group == nil {
				group = make(map[string]map[relation.TupleID]struct{})
				byRule[string(inc.keyBuf)] = group
			}
			if group[bVal] == nil {
				group[bVal] = make(map[relation.TupleID]struct{})
			}
			group[bVal][u.Tuple.ID] = struct{}{}

		case relation.Delete:
			if group == nil || group[bVal] == nil {
				return nil, fmt.Errorf("centralized: tuple %d not indexed for rule %s", u.Tuple.ID, r.ID)
			}
			classSize := len(group[bVal])
			distinct := len(group)
			// Fig. 4 incVDel case analysis.
			switch {
			case classSize > 1:
				if distinct >= 2 {
					delta.Remove(u.Tuple.ID, r.ID)
				}
			case distinct-1 >= 2:
				delta.Remove(u.Tuple.ID, r.ID)
			case distinct-1 == 1:
				delta.Remove(u.Tuple.ID, r.ID)
				for b, cls := range group {
					if b == bVal {
						continue
					}
					for id := range cls {
						delta.Remove(id, r.ID)
					}
				}
			}
			delete(group[bVal], u.Tuple.ID)
			if len(group[bVal]) == 0 {
				delete(group, bVal)
			}
			if len(group) == 0 {
				delete(byRule, string(inc.keyBuf))
			}
		}
	}

	if u.Kind == relation.Delete {
		if _, err := inc.rel.Delete(u.Tuple.ID); err != nil {
			return nil, err
		}
	}
	return delta, nil
}

// Rules returns the rule set in force.
func (inc *Incremental) Rules() []cfd.CFD { return inc.rules }

// BatchDetect recomputes V(Σ, D) from scratch over the maintained
// relation — the single-site batch baseline the distributed engines'
// batVer and batHor are compared against.
func (inc *Incremental) BatchDetect() (*cfd.Violations, error) {
	return Detect(inc.rel, inc.rules), nil
}
