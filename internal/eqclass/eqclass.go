// Package eqclass implements the index structures of §4 of the paper:
// equivalence classes [t]_Y with unique ids (eqids), hash-based
// equivalence-class-and-value indices (HEVs) — base HEVs mapping single
// attribute values to eqids, non-base HEVs implementing the eq() function
// composing input eqids into the eqid of the attribute union — and IDX,
// the per-CFD index grouping the equivalence classes [t']_{X∪{B}} inside
// each [t]_X.
//
// All structures are reference counted so deletions shrink them; every
// operation is O(1) expected, which is what makes the incremental
// algorithms' computational cost O(|∆D| + |∆V|).
package eqclass

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/relation"
)

// EqID identifies an equivalence class within one HEV. Ids are scoped to
// the HEV that issued them; composing eqids across HEVs is exactly what
// non-base HEVs are for.
type EqID int64

// BaseHEV maps single attribute values to eqids. Base HEVs are shared by
// all CFDs using the attribute at that site.
type BaseHEV struct {
	Attr string

	next   EqID
	byVal  map[string]EqID
	refcnt map[EqID]int
}

// NewBaseHEV creates an empty base HEV for attr.
func NewBaseHEV(attr string) *BaseHEV {
	return &BaseHEV{Attr: attr, byVal: make(map[string]EqID), refcnt: make(map[EqID]int)}
}

// Acquire returns the eqid of value, allocating a fresh class if needed,
// and increments its reference count. Used on insertion.
func (h *BaseHEV) Acquire(value string) EqID {
	id, ok := h.byVal[value]
	if !ok {
		h.next++
		id = h.next
		h.byVal[value] = id
	}
	h.refcnt[id]++
	return id
}

// Lookup returns the eqid of value without touching reference counts.
// Used on deletion (the class must already exist) and probes.
func (h *BaseHEV) Lookup(value string) (EqID, bool) {
	id, ok := h.byVal[value]
	return id, ok
}

// Release decrements the class's reference count, dropping the entry when
// it reaches zero. Used on deletion.
func (h *BaseHEV) Release(value string) error {
	id, ok := h.byVal[value]
	if !ok {
		return fmt.Errorf("eqclass: base HEV %s: release of unknown value %q", h.Attr, value)
	}
	h.refcnt[id]--
	if h.refcnt[id] < 0 {
		return fmt.Errorf("eqclass: base HEV %s: negative refcount for %q", h.Attr, value)
	}
	if h.refcnt[id] == 0 {
		delete(h.refcnt, id)
		delete(h.byVal, value)
	}
	return nil
}

// Len returns the number of live classes.
func (h *BaseHEV) Len() int { return len(h.byVal) }

// HEV is a non-base index: the eq() function of §4, mapping a tuple of
// input eqids (from base HEVs and/or other non-base HEVs whose attribute
// sets union to Attrs) to the eqid of the combined attribute set.
//
// Keys are uvarint-encoded input eqid lists built in a per-HEV scratch
// buffer, so the resolver's Acquire/Lookup probes allocate nothing on
// warm paths (map probes go through string(scratch), which Go resolves
// without materializing the string). The scratch makes a HEV unsafe for
// concurrent use — in this system every HEV is owned by exactly one
// site, whose handler dispatch is already serialized.
type HEV struct {
	// Attrs is the attribute set this HEV keys, sorted.
	Attrs []string

	next    EqID
	byKey   map[string]EqID
	refcnt  map[EqID]int
	scratch []byte
}

// NewHEV creates an empty non-base HEV over the given (sorted) attribute
// set.
func NewHEV(attrs []string) *HEV {
	return &HEV{Attrs: attrs, byKey: make(map[string]EqID), refcnt: make(map[EqID]int)}
}

// AppendComposeKey appends the canonical key of an input eqid list to
// dst. The caller must always present inputs in the same order (the plan
// fixes the input order per HEV). Eqids are non-negative, so uvarint
// encoding is unambiguous and self-delimiting.
func AppendComposeKey(dst []byte, inputs []EqID) []byte {
	for _, id := range inputs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// Acquire returns eq(inputs), allocating a fresh class if needed, and
// increments its reference count.
func (h *HEV) Acquire(inputs []EqID) EqID {
	h.scratch = AppendComposeKey(h.scratch[:0], inputs)
	id, ok := h.byKey[string(h.scratch)]
	if !ok {
		h.next++
		id = h.next
		h.byKey[string(h.scratch)] = id
	}
	h.refcnt[id]++
	return id
}

// Lookup returns eq(inputs) without touching reference counts.
func (h *HEV) Lookup(inputs []EqID) (EqID, bool) {
	h.scratch = AppendComposeKey(h.scratch[:0], inputs)
	id, ok := h.byKey[string(h.scratch)]
	return id, ok
}

// Release decrements the class's reference count, dropping it at zero.
func (h *HEV) Release(inputs []EqID) error {
	h.scratch = AppendComposeKey(h.scratch[:0], inputs)
	id, ok := h.byKey[string(h.scratch)]
	if !ok {
		return fmt.Errorf("eqclass: HEV %v: release of unknown key %x", h.Attrs, h.scratch)
	}
	h.refcnt[id]--
	if h.refcnt[id] < 0 {
		return fmt.Errorf("eqclass: HEV %v: negative refcount for key %x", h.Attrs, h.scratch)
	}
	if h.refcnt[id] == 0 {
		delete(h.refcnt, id)
		delete(h.byKey, string(h.scratch))
	}
	return nil
}

// Len returns the number of live classes.
func (h *HEV) Len() int { return len(h.byKey) }

// IDX is the per-CFD index of §4, stored at the site maintaining the
// rule's eqid_X: for each equivalence class [t]_X (keyed by its eqid) it
// holds the distinct classes [t']_{X∪{B}} — here keyed by the eqid of the
// B value — each with the set of member tuple ids.
//
// set(t[X]) of the paper is the family of inner classes of group
// eqid_X; |set(t[X])| is DistinctB.
type IDX struct {
	groups map[EqID]map[EqID]map[relation.TupleID]struct{}
	size   int
}

// NewIDX creates an empty IDX.
func NewIDX() *IDX {
	return &IDX{groups: make(map[EqID]map[EqID]map[relation.TupleID]struct{})}
}

// Insert adds tuple id to class (eqX, eqB).
func (x *IDX) Insert(eqX, eqB EqID, id relation.TupleID) {
	g, ok := x.groups[eqX]
	if !ok {
		g = make(map[EqID]map[relation.TupleID]struct{})
		x.groups[eqX] = g
	}
	cls, ok := g[eqB]
	if !ok {
		cls = make(map[relation.TupleID]struct{})
		g[eqB] = cls
	}
	if _, dup := cls[id]; !dup {
		cls[id] = struct{}{}
		x.size++
	}
}

// Delete removes tuple id from class (eqX, eqB), pruning empty classes
// and groups.
func (x *IDX) Delete(eqX, eqB EqID, id relation.TupleID) error {
	g, ok := x.groups[eqX]
	if !ok {
		return fmt.Errorf("eqclass: IDX delete: no group %d", eqX)
	}
	cls, ok := g[eqB]
	if !ok {
		return fmt.Errorf("eqclass: IDX delete: group %d has no class %d", eqX, eqB)
	}
	if _, ok := cls[id]; !ok {
		return fmt.Errorf("eqclass: IDX delete: class (%d,%d) has no tuple %d", eqX, eqB, id)
	}
	delete(cls, id)
	x.size--
	if len(cls) == 0 {
		delete(g, eqB)
	}
	if len(g) == 0 {
		delete(x.groups, eqX)
	}
	return nil
}

// DistinctB returns |set(t[X])|: the number of distinct B-value classes in
// group eqX.
func (x *IDX) DistinctB(eqX EqID) int { return len(x.groups[eqX]) }

// ClassSize returns |[t]_{X∪{B}}| for class (eqX, eqB).
func (x *IDX) ClassSize(eqX, eqB EqID) int { return len(x.groups[eqX][eqB]) }

// ClassMembers returns the tuple ids in class (eqX, eqB), ascending.
func (x *IDX) ClassMembers(eqX, eqB EqID) []relation.TupleID {
	cls := x.groups[eqX][eqB]
	out := make([]relation.TupleID, 0, len(cls))
	for id := range cls {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// GroupMembers returns all tuple ids in group eqX across classes,
// ascending.
func (x *IDX) GroupMembers(eqX EqID) []relation.TupleID {
	var out []relation.TupleID
	for _, cls := range x.groups[eqX] {
		for id := range cls {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// OtherClassMembers returns the tuple ids of every class in group eqX
// except (eqX, exclude), ascending.
func (x *IDX) OtherClassMembers(eqX, exclude EqID) []relation.TupleID {
	var out []relation.TupleID
	for eqB, cls := range x.groups[eqX] {
		if eqB == exclude {
			continue
		}
		for id := range cls {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// Len returns the total number of indexed (group, class, tuple) entries.
func (x *IDX) Len() int { return x.size }

// Groups returns the number of live groups.
func (x *IDX) Groups() int { return len(x.groups) }

func sortIDs(ids []relation.TupleID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
