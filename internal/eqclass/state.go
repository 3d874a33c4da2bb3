package eqclass

import (
	"sort"

	"repro/internal/relation"
)

// Exported state mirrors for checkpointing. The index structures keep
// their working fields unexported (scratch buffers, struct{}-valued
// sets the positional codec cannot encode); these types flatten them
// into shapes internal/wire takes. Maps encode in ascending key order
// and the flattened lists are sorted here, so a state's bytes do not
// depend on map iteration order.

// BaseState is the serializable state of a BaseHEV.
type BaseState struct {
	Attr   string
	Next   EqID
	ByVal  map[string]EqID
	Refcnt map[EqID]int
}

// State exposes the HEV's current classes for checkpointing. The maps
// are the live ones, not copies: encode the state before the HEV is used
// again.
func (h *BaseHEV) State() *BaseState {
	return &BaseState{Attr: h.Attr, Next: h.next, ByVal: h.byVal, Refcnt: h.refcnt}
}

// RestoreBase rebuilds a BaseHEV from checkpointed state.
func RestoreBase(s *BaseState) *BaseHEV {
	h := NewBaseHEV(s.Attr)
	h.next = s.Next
	for v, id := range s.ByVal {
		h.byVal[v] = id
	}
	for id, n := range s.Refcnt {
		h.refcnt[id] = n
	}
	return h
}

// HEVState is the serializable state of a non-base HEV.
type HEVState struct {
	Attrs  []string
	Next   EqID
	ByKey  map[string]EqID
	Refcnt map[EqID]int
}

// State exposes the HEV's current classes for checkpointing; like
// BaseHEV.State it aliases the live maps.
func (h *HEV) State() *HEVState {
	return &HEVState{Attrs: h.Attrs, Next: h.next, ByKey: h.byKey, Refcnt: h.refcnt}
}

// RestoreHEV rebuilds a non-base HEV from checkpointed state.
func RestoreHEV(s *HEVState) *HEV {
	h := NewHEV(append([]string(nil), s.Attrs...))
	h.next = s.Next
	for k, id := range s.ByKey {
		h.byKey[k] = id
	}
	for id, n := range s.Refcnt {
		h.refcnt[id] = n
	}
	return h
}

// IDXEntry is one (group, class) cell of an IDX with its member ids.
type IDXEntry struct {
	EqX EqID
	EqB EqID
	IDs []relation.TupleID
}

// IDXState is the serializable state of an IDX, flattened to entry
// lists (ascending EqX, then EqB) because the checkpoint codec cannot
// encode struct{}-valued set maps.
type IDXState struct {
	Entries []IDXEntry
}

// State captures the IDX contents for checkpointing.
func (x *IDX) State() *IDXState {
	s := &IDXState{Entries: make([]IDXEntry, 0, len(x.groups))}
	for eqX, g := range x.groups {
		for eqB, cls := range g {
			ids := make([]relation.TupleID, 0, len(cls))
			for id := range cls {
				ids = append(ids, id)
			}
			sortIDs(ids)
			s.Entries = append(s.Entries, IDXEntry{EqX: eqX, EqB: eqB, IDs: ids})
		}
	}
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := s.Entries[i], s.Entries[j]
		return a.EqX < b.EqX || a.EqX == b.EqX && a.EqB < b.EqB
	})
	return s
}

// RestoreIDX rebuilds an IDX from checkpointed state, recomputing the
// size counter.
func RestoreIDX(s *IDXState) *IDX {
	x := NewIDX()
	for _, e := range s.Entries {
		for _, id := range e.IDs {
			x.Insert(e.EqX, e.EqB, id)
		}
	}
	return x
}
