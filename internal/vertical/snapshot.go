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
// hosted plans, and Graft/DropRule rebuild it as needed. Rules is in
// ascending id order, the rule numbering itself; what a site derives from
// rules, plan and fragment schema (pattern-constant checks, node table,
// generation stamp) is rebuilt on restore, not stored.
type vSiteState struct {
	Frag  []relation.Tuple
	Rules []cfd.CFD
	Plan  *optimizer.Plan
	Base  []*eqclass.BaseState
	Hevs  []snapHEV
	Idx   []snapIDX
	Buf   []snapBuf
}

// snapshotState captures the site's fragment, rules, plan copy and
// equivalence state. The HEV states alias the live maps, which is safe
// because they are encoded before this returns, under the caller's lock.
func (s *site) snapshotState() ([]byte, error) {
	st := vSiteState{Frag: s.frag.Tuples(), Plan: s.plan}
	for i := range s.rules {
		r := &s.rules[i]
		st.Rules = append(st.Rules, *r.rule)
		if r.idx != nil {
			st.Idx = append(st.Idx, snapIDX{Rule: r.rule.ID, State: r.idx.State()})
		}
	}
	for _, b := range s.base {
		st.Base = append(st.Base, b.State())
	}
	slices.SortFunc(st.Base, func(a, b *eqclass.BaseState) int { return cmp.Compare(a.Attr, b.Attr) })
	for id := range s.nodes {
		if h := s.nodes[id].hev; h != nil {
			st.Hevs = append(st.Hevs, snapHEV{Node: optimizer.NodeID(id), State: h.State()})
		}
	}
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
// all current state, the site's plan copy included. The snapshot is checked the way a
// hello's plan and rules are, and every equivalence state must belong to
// a node or rule the rebuilt site hosts; a refused snapshot leaves the
// site as it was.
func (s *site) restoreState(data []byte) error {
	var st vSiteState
	if err := wire.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
	}
	if st.Plan == nil {
		return fmt.Errorf("vertical: restore site %d: snapshot lacks a plan", s.id)
	}
	if err := st.Plan.Validate(); err != nil {
		return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
	}
	r, err := newSite(s.id, s.schema, st.Plan, st.Rules)
	if err != nil {
		return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
	}
	for _, t := range st.Frag {
		if err := r.frag.Insert(t); err != nil {
			return fmt.Errorf("vertical: restore site %d: %w", s.id, err)
		}
	}
	// newSite created an empty structure for everything hosted here; the
	// snapshot's states replace them one for one.
	for _, b := range st.Base {
		if b == nil || r.base[b.Attr] == nil {
			return fmt.Errorf("vertical: restore site %d: base HEV state without a base node here", s.id)
		}
		*r.base[b.Attr] = *eqclass.RestoreBase(b)
	}
	for _, h := range st.Hevs {
		if h.Node < 0 || int(h.Node) >= len(r.nodes) || r.nodes[h.Node].hev == nil || h.State == nil {
			return fmt.Errorf("vertical: restore site %d: HEV state for node %d, which is not a composed node here", s.id, h.Node)
		}
		r.nodes[h.Node].hev = eqclass.RestoreHEV(h.State)
	}
	for _, x := range st.Idx {
		no, ok := r.ruleNo(x.Rule)
		if !ok || r.rules[no].idx == nil || x.State == nil {
			return fmt.Errorf("vertical: restore site %d: IDX state for rule %q, whose IDX is not here", s.id, x.Rule)
		}
		r.rules[no].idx = eqclass.RestoreIDX(x.State)
	}
	for _, b := range st.Buf {
		r.buf[b.ID] = b.Eqids
	}
	r.snapLen = s.snapLen
	*s = *r
	return nil
}
