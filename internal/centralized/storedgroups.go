package centralized

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/xerr"
)

// Stored grouping indexes: the out-of-core backend for the per-rule
// equivalence groups the Fig. 4 case analysis reads and writes. One
// store record per (rule, X-key) holds the whole group — B-value
// classes and their member sets — so a unit update touches exactly the
// records of the rules its tuple matches: get the record, run the same
// case analysis as the in-memory path on what one scan of its bytes
// yields, put the spliced record back. The page cache turns a round's
// locality into one fault per warm page; Flush at round boundaries
// writes the dirty pages back.
//
// Keys are a stable big-endian uint32 rule tag followed by the raw
// length-prefixed X-key. Tags are assigned once when a rule enters
// force and never reused, so RemoveRules-style renumbering of the
// compiled-rule slice never invalidates stored keys; a retired rule's
// records are purged by tag prefix.

// Storage bundles the two stores of an out-of-core engine.
type Storage struct {
	Tuples storage.Store
	Groups storage.Store
}

// Close closes every open store, returning the first error. Safe on a
// partially populated Storage (nil stores are skipped).
func (s Storage) Close() error {
	var err error
	for _, st := range []storage.Store{s.Tuples, s.Groups} {
		if st == nil {
			continue
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// GroupPagerBits sizes group stores at 2^14 hash pages.
const GroupPagerBits = 14

// GroupKey appends the store key of (rule tag, X-key) to dst.
func GroupKey(dst []byte, tag uint32, xkey []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, tag)
	return append(dst, xkey...)
}

type storedGroups struct {
	st      storage.Store
	tags    []uint32 // per compiled rule; 0 for ConstRHS rules (no groups)
	nextTag uint32
	keyBuf  []byte
	encBuf  []byte
}

// addRule assigns the next stable tag (variable rules) or 0 (ConstRHS).
func (g *storedGroups) addRule(constRHS bool) {
	if constRHS {
		g.tags = append(g.tags, 0)
		return
	}
	g.nextTag++
	g.tags = append(g.tags, g.nextTag)
}

// Group record layout: uvarint #classes; per class, ascending by
// B-value: uvarint len(b), b, uvarint #members (>= 1), the members as
// ascending uvarint ids. Every varint is minimal (wire.ReadUvarint
// rejects padding), so a group has exactly one encoding and an update
// can be applied to the bytes: scanGroup finds where the update lands in
// one allocation-free pass, and appendInsert/appendDelete splice the new
// record together from the old one's prefix and suffix — no maps, no
// sort, no allocation.

// groupScan is what one pass over a group record tells the Fig. 4 case
// analysis and the splice about an update of member (b, id). The zero
// value describes the absent record.
type groupScan struct {
	distinct int // classes in the record
	hdrW     int // width of the class-count varint
	// The class of b is raw[classOff:classEnd] when classSize > 0;
	// otherwise classOff == classEnd is where it sorts in.
	classOff, classEnd int
	classSize          int // members of the class of b; 0 when absent
	countOff, countW   int // that class's member-count varint
	// id's varint is raw[idOff:idEnd] when found; otherwise
	// idOff == idEnd is where it sorts into the class of b.
	idOff, idEnd int
	found        bool
}

// scanGroup validates raw as a canonical group record — every length
// bounded by the input, classes and ids strictly ascending, no empty
// class, no trailing bytes — and locates member (b, id) in it.
func scanGroup(raw []byte, b string, id relation.TupleID) (groupScan, error) {
	var sc groupScan
	n, p := wire.ReadUvarint(raw)
	if p == 0 || n == 0 || n > uint64(len(raw)) {
		return sc, fmt.Errorf("bad class count")
	}
	sc.distinct, sc.hdrW = int(n), p
	sc.classOff = -1
	var prevB []byte
	for c := 0; c < sc.distinct; c++ {
		start := p
		blen, w := wire.ReadUvarint(raw[p:])
		if w == 0 || blen > uint64(len(raw)-p-w) {
			return sc, fmt.Errorf("bad B-value frame at byte %d", p)
		}
		cb := raw[p+w : p+w+int(blen)]
		if c > 0 && bytes.Compare(prevB, cb) >= 0 {
			return sc, fmt.Errorf("classes out of order at byte %d", p)
		}
		prevB = cb
		p += w + int(blen)
		cnt, w := wire.ReadUvarint(raw[p:])
		if w == 0 || cnt == 0 || cnt > uint64(len(raw)-p-w) {
			return sc, fmt.Errorf("bad member count at byte %d", p)
		}
		target := string(cb) == b
		if target {
			sc.classOff, sc.classSize = start, int(cnt)
			sc.countOff, sc.countW = p, w
			sc.idOff = -1
		} else if sc.classOff < 0 && string(cb) > b {
			sc.classOff, sc.classEnd = start, start
		}
		p += w
		var last relation.TupleID
		for m := uint64(0); m < cnt; m++ {
			v, w := wire.ReadUvarint(raw[p:])
			if w == 0 {
				return sc, fmt.Errorf("bad member id at byte %d", p)
			}
			cur := relation.TupleID(v)
			if m > 0 && cur <= last {
				return sc, fmt.Errorf("member ids out of order at byte %d", p)
			}
			last = cur
			if target && sc.idOff < 0 && cur >= id {
				sc.idOff, sc.idEnd = p, p
				if cur == id {
					sc.idEnd, sc.found = p+w, true
				}
			}
			p += w
		}
		if target {
			sc.classEnd = p
			if sc.idOff < 0 {
				sc.idOff, sc.idEnd = p, p
			}
		}
	}
	if p != len(raw) {
		return sc, fmt.Errorf("%d trailing bytes", len(raw)-p)
	}
	if sc.classOff < 0 {
		sc.classOff, sc.classEnd = p, p
	}
	return sc, nil
}

// appendInsert appends to dst the record raw with member (b, id) added;
// sc must be scanGroup(raw, b, id) with id not found.
func (sc *groupScan) appendInsert(dst, raw []byte, b string, id relation.TupleID) []byte {
	if sc.classSize > 0 {
		dst = append(dst, raw[:sc.countOff]...)
		dst = binary.AppendUvarint(dst, uint64(sc.classSize+1))
		dst = append(dst, raw[sc.countOff+sc.countW:sc.idOff]...)
		dst = binary.AppendUvarint(dst, uint64(id))
		return append(dst, raw[sc.idOff:]...)
	}
	dst = binary.AppendUvarint(dst, uint64(sc.distinct+1))
	dst = append(dst, raw[sc.hdrW:sc.classOff]...)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	dst = binary.AppendUvarint(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(id))
	return append(dst, raw[sc.classOff:]...)
}

// appendDelete appends to dst the record raw with the found member
// removed — nothing at all when that empties the group.
func (sc *groupScan) appendDelete(dst, raw []byte) []byte {
	if sc.classSize > 1 {
		dst = append(dst, raw[:sc.countOff]...)
		dst = binary.AppendUvarint(dst, uint64(sc.classSize-1))
		dst = append(dst, raw[sc.countOff+sc.countW:sc.idOff]...)
		return append(dst, raw[sc.idEnd:]...)
	}
	if sc.distinct == 1 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(sc.distinct-1))
	dst = append(dst, raw[sc.hdrW:sc.classOff]...)
	return append(dst, raw[sc.classEnd:]...)
}

// eachOtherMember calls f for every member of the scanned record raw
// outside the class of b: the tuples whose marks flip when the group
// moves between one and two distinct B-values.
func (sc *groupScan) eachOtherMember(raw []byte, f func(relation.TupleID)) {
	p := sc.hdrW
	for p < len(raw) {
		if p == sc.classOff && sc.classSize > 0 {
			p = sc.classEnd
			continue
		}
		blen, w := binary.Uvarint(raw[p:])
		p += w + int(blen)
		cnt, w := binary.Uvarint(raw[p:])
		p += w
		for ; cnt > 0; cnt-- {
			v, w := binary.Uvarint(raw[p:])
			p += w
			f(relation.TupleID(v))
		}
	}
}

// purgeRule deletes every record of the given tag (a retired rule).
// Group stores use a hash pager, so this is a filtered full scan — fine
// for the rare rule-retirement path.
func (g *storedGroups) purgeRule(tag uint32) error {
	var keys [][]byte
	err := g.st.Each(func(k, _ []byte) bool {
		if len(k) >= 4 && binary.BigEndian.Uint32(k[:4]) == tag {
			keys = append(keys, append([]byte(nil), k...))
		}
		return true
	})
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := g.st.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// NewIncrementalStored is NewIncremental with the maintained relation's
// tuples and the grouping indexes behind stores, so resident memory is
// bounded by the stores' page-cache budgets plus the always-resident
// mark bitsets, their epoch tries and the tuple-id index, instead of |D|. The source rel is streamed in
// tuple by tuple; the stores must be empty.
func NewIncrementalStored(rel *relation.Relation, rules []cfd.CFD, st Storage) (*Incremental, error) {
	if err := cfd.ValidateAll(rel.Schema, rules); err != nil {
		return nil, err
	}
	mrel, err := relation.NewStored(rel.Schema, st.Tuples)
	if err != nil {
		return nil, err
	}
	if mrel.Len() != 0 {
		return nil, fmt.Errorf("centralized: stored engine requires an empty tuple store (%d tuples)", mrel.Len())
	}
	inc := &Incremental{
		rel:   mrel,
		rules: append([]cfd.CFD(nil), rules...),
		v:     cfd.NewViolations(),
		gst:   &storedGroups{st: st.Groups},
	}
	inc.v.InternRules(inc.rules)
	inc.comp = cfd.CompileAll(rel.Schema, inc.rules)
	for i := range inc.comp {
		inc.gst.addRule(inc.comp[i].ConstRHS)
	}
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
	if err := inc.Flush(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Stored reports whether the maintainer keeps its state behind stores.
func (inc *Incremental) Stored() bool { return inc.gst != nil }

// Flush writes back all dirty state to the stores — tuples and groups —
// and is a no-op for the in-memory maintainer. Callers align
// it with protocol-round boundaries.
func (inc *Incremental) Flush() error {
	if inc.gst == nil {
		return nil
	}
	if err := inc.storeErr(); err != nil {
		return err
	}
	if err := inc.rel.Flush(); err != nil {
		return err
	}
	return inc.gst.st.Flush()
}

// StorageStats reports the per-store cache counters of a stored
// maintainer (zero Stats in memory mode).
func (inc *Incremental) StorageStats() map[string]storage.Stats {
	if inc.gst == nil {
		return nil
	}
	return map[string]storage.Stats{
		"tuples": inc.rel.StoreStats(),
		"groups": inc.gst.st.Stats(),
	}
}

// applyRuleStored is the stored-groups mirror of applyUnit's per-rule
// body: the identical Fig. 4 case analysis, run on the two numbers a
// scan of the encoded group record yields, and the record rewritten by
// splicing. Member ids are read off the bytes only in the two
// transitions that mark every other member (paid for by |∆V|). raw is
// the store's (valid until the next store operation): it is only read,
// the new record is assembled in encBuf and then Put.
func (inc *Incremental) applyRuleStored(i int, u relation.Update, delta *cfd.Delta) error {
	r := &inc.comp[i]
	g := inc.gst
	inc.keyBuf = u.Tuple.AppendKey(inc.keyBuf[:0], r.LHSCols)
	g.keyBuf = GroupKey(g.keyBuf[:0], g.tags[i], inc.keyBuf)
	bVal := u.Tuple.Values[r.RHSCol]
	raw, ok, err := g.st.Get(g.keyBuf)
	if err != nil {
		return err
	}
	var sc groupScan
	if ok {
		if sc, err = scanGroup(raw, bVal, u.Tuple.ID); err != nil {
			return fmt.Errorf("centralized: group record of rule %s (tag %d): %v: %w", r.ID, g.tags[i], err, xerr.ErrStoreCorrupt)
		}
	}

	switch u.Kind {
	case relation.Insert:
		if sc.found {
			return fmt.Errorf("centralized: tuple %d already indexed for rule %s", u.Tuple.ID, r.ID)
		}
		// Fig. 4 incVIns case analysis.
		switch {
		case sc.classSize > 0:
			if sc.distinct >= 2 {
				delta.Add(u.Tuple.ID, r.ID)
			}
		case sc.distinct >= 2:
			delta.Add(u.Tuple.ID, r.ID)
		case sc.distinct == 1:
			delta.Add(u.Tuple.ID, r.ID)
			sc.eachOtherMember(raw, func(id relation.TupleID) { delta.Add(id, r.ID) })
		}
		g.encBuf = sc.appendInsert(g.encBuf[:0], raw, bVal, u.Tuple.ID)

	case relation.Delete:
		if !sc.found {
			return fmt.Errorf("centralized: tuple %d not indexed for rule %s", u.Tuple.ID, r.ID)
		}
		// Fig. 4 incVDel case analysis.
		switch {
		case sc.classSize > 1:
			if sc.distinct >= 2 {
				delta.Remove(u.Tuple.ID, r.ID)
			}
		case sc.distinct-1 >= 2:
			delta.Remove(u.Tuple.ID, r.ID)
		case sc.distinct-1 == 1:
			delta.Remove(u.Tuple.ID, r.ID)
			sc.eachOtherMember(raw, func(id relation.TupleID) { delta.Remove(id, r.ID) })
		}
		g.encBuf = sc.appendDelete(g.encBuf[:0], raw)
	}
	if len(g.encBuf) == 0 {
		return g.st.Delete(g.keyBuf)
	}
	return g.st.Put(g.keyBuf, g.encBuf)
}
