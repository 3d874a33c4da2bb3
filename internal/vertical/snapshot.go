package vertical

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cfd"
	"repro/internal/eqclass"
	"repro/internal/optimizer"
	"repro/internal/relation"
	"repro/internal/wire"
)

// Checkpoint serialization for hosted vertical sites. Like the
// horizontal twin, the encoding is the positional codec of
// internal/wire, written only to checkpoint files — never to a metered
// wire stream — and every list is emitted in ascending key order (the
// codec does the same for maps), so equal site states are equal bytes.

// snapCheck is one local pattern-constant check; checks are a slice, so
// their order is preserved exactly.
type snapCheck struct {
	RuleID string
	Cols   []int
	Values []string
}

// snapHEV is one composed node's equivalence state.
type snapHEV struct {
	Node  optimizer.NodeID
	State *eqclass.HEVState
}

// snapIDX is one rule's IDX contents.
type snapIDX struct {
	Rule  string
	State *eqclass.IDXState
}

// snapBuf is one tuple's per-node eqid buffer (normally empty between
// batches; persisted for completeness).
type snapBuf struct {
	ID    int64
	Eqids []int64
}

// vSiteState is the full checkpointable state of a vertical site. The
// plan is stored with its exported fields (Nodes, Bindings) only — the
// unexported shipment-edge cache is a driver-side concern absent from
// hosted plans, and Graft/DropRule rebuild it as needed.
type vSiteState struct {
	Frag   []relation.Tuple
	Rules  []cfd.CFD
	Checks []snapCheck
	Plan   *optimizer.Plan
	Base   []*eqclass.BaseState
	Hevs   []snapHEV
	Idx    []snapIDX
	Buf    []snapBuf
}

// snapshotState captures the site's fragment, rules, plan copy and
// equivalence state. The HEV states alias the live maps, which is safe
// because they are encoded before this returns, under the caller's lock.
func (s *site) snapshotState() ([]byte, error) {
	st := vSiteState{Frag: s.frag.Tuples(), Plan: s.plan}
	for _, r := range s.rules {
		st.Rules = append(st.Rules, *r)
	}
	slices.SortFunc(st.Rules, func(a, b cfd.CFD) int { return cmp.Compare(a.ID, b.ID) })
	for _, c := range s.checks {
		st.Checks = append(st.Checks, snapCheck{RuleID: c.ruleID, Cols: c.cols, Values: c.values})
	}
	for _, b := range s.base {
		st.Base = append(st.Base, b.State())
	}
	slices.SortFunc(st.Base, func(a, b *eqclass.BaseState) int { return cmp.Compare(a.Attr, b.Attr) })
	for id, h := range s.hevs {
		st.Hevs = append(st.Hevs, snapHEV{Node: id, State: h.State()})
	}
	slices.SortFunc(st.Hevs, func(a, b snapHEV) int { return cmp.Compare(a.Node, b.Node) })
	for rid, x := range s.idx {
		st.Idx = append(st.Idx, snapIDX{Rule: rid, State: x.State()})
	}
	slices.SortFunc(st.Idx, func(a, b snapIDX) int { return cmp.Compare(a.Rule, b.Rule) })
	for id, m := range s.buf {
		st.Buf = append(st.Buf, snapBuf{ID: id, Eqids: m})
	}
	slices.SortFunc(st.Buf, func(a, b snapBuf) int { return cmp.Compare(a.ID, b.ID) })
	data, err := wire.Append(make([]byte, 0, s.snapLen+s.snapLen/8), &st)
	if err != nil {
		return nil, fmt.Errorf("vertical: snapshot site %d: %w", s.id, err)
	}
	s.snapLen = len(data)
	return data, nil
}

// restoreState rebuilds the site from a checkpointed snapshot, replacing
// all current state. The restored site owns its plan copy, exactly like
// a freshly bootstrapped hosted site.
func (s *site) restoreState(data []byte) error {
	var st vSiteState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
	}
	if st.Plan == nil {
		return fmt.Errorf("vertical: restore site %d: snapshot lacks a plan", s.id)
	}
	for _, c := range st.Checks {
		if len(c.Cols) != len(c.Values) {
			return fmt.Errorf("vertical: restore site %d: rule %q checks %d columns against %d constants", s.id, c.RuleID, len(c.Cols), len(c.Values))
		}
		for _, col := range c.Cols {
			if col < 0 || col >= s.schema.Width() {
				return fmt.Errorf("vertical: restore site %d: rule %q checks column %d of %d", s.id, c.RuleID, col, s.schema.Width())
			}
		}
	}
	s.frag = relation.New(s.schema)
	s.plan = st.Plan
	s.ownsPlan = true
	s.rules = make(map[string]*cfd.CFD, len(st.Rules))
	s.base = make(map[string]*eqclass.BaseHEV, len(st.Base))
	s.hevs = make(map[optimizer.NodeID]*eqclass.HEV, len(st.Hevs))
	s.idx = make(map[string]*eqclass.IDX, len(st.Idx))
	s.checks = nil
	s.buf = make(map[int64][]int64, len(st.Buf))
	s.bufPool = nil
	for _, t := range st.Frag {
		if err := s.frag.Insert(t); err != nil {
			return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
		}
	}
	for i := range st.Rules {
		r := st.Rules[i]
		s.rules[r.ID] = &r
	}
	for _, c := range st.Checks {
		s.checks = append(s.checks, constChecks{ruleID: c.RuleID, cols: c.Cols, values: c.Values})
	}
	for _, b := range st.Base {
		if b == nil {
			return fmt.Errorf("vertical: restore site %d: base HEV without state", s.id)
		}
		s.base[b.Attr] = eqclass.RestoreBase(b)
	}
	for _, h := range st.Hevs {
		if h.State == nil {
			return fmt.Errorf("vertical: restore site %d: node %d without state", s.id, h.Node)
		}
		s.hevs[h.Node] = eqclass.RestoreHEV(h.State)
	}
	for _, x := range st.Idx {
		if x.State == nil {
			return fmt.Errorf("vertical: restore site %d: rule %q IDX without state", s.id, x.Rule)
		}
		s.idx[x.Rule] = eqclass.RestoreIDX(x.State)
	}
	for _, b := range st.Buf {
		s.buf[b.ID] = b.Eqids
	}
	return nil
}
