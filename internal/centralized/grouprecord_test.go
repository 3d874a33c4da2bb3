package centralized

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/xerr"
)

// The map-based group codec the stored engine used before it edited
// records in place. It defines the record bytes: the editor's output is
// compared against encodeGroup of the same membership after every step.

type groupModel map[string]map[relation.TupleID]struct{}

func encodeGroup(dst []byte, group groupModel) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(group)))
	bs := make([]string, 0, len(group))
	for b := range group {
		bs = append(bs, b)
	}
	sort.Strings(bs)
	var ids []relation.TupleID
	for _, b := range bs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
		cls := group[b]
		dst = binary.AppendUvarint(dst, uint64(len(cls)))
		ids = ids[:0]
		for id := range cls {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

func decodeGroup(raw []byte) (groupModel, error) {
	nClasses, w := binary.Uvarint(raw)
	if w <= 0 || nClasses > uint64(len(raw)) {
		return nil, fmt.Errorf("centralized: bad group class count")
	}
	raw = raw[w:]
	group := make(groupModel, nClasses)
	for c := uint64(0); c < nClasses; c++ {
		blen, w := binary.Uvarint(raw)
		if w <= 0 || blen > uint64(len(raw)-w) {
			return nil, fmt.Errorf("centralized: bad group B-value frame")
		}
		b := string(raw[w : w+int(blen)])
		raw = raw[w+int(blen):]
		n, w := binary.Uvarint(raw)
		if w <= 0 || n > uint64(len(raw)) {
			return nil, fmt.Errorf("centralized: bad group member count")
		}
		raw = raw[w:]
		cls := make(map[relation.TupleID]struct{}, n)
		for i := uint64(0); i < n; i++ {
			id, w := binary.Uvarint(raw)
			if w <= 0 {
				return nil, fmt.Errorf("centralized: bad group member id")
			}
			raw = raw[w:]
			cls[relation.TupleID(id)] = struct{}{}
		}
		group[b] = cls
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("centralized: %d trailing bytes in group record", len(raw))
	}
	return group, nil
}

// canonical reports whether raw is the one encoding of a group the
// engine can have stored: it survives the model round trip unchanged and
// has neither zero classes nor an empty class (an emptied class or group
// is removed, never written).
func canonical(raw []byte) (groupModel, bool) {
	group, err := decodeGroup(raw)
	if err != nil || len(group) == 0 || !bytes.Equal(encodeGroup(nil, group), raw) {
		return nil, false
	}
	for _, cls := range group {
		if len(cls) == 0 {
			return nil, false
		}
	}
	return group, true
}

// recordRig is a stored maintainer and an in-memory one over rigSchema
// and rigRules, every tuple in the one group X = "x": each step is one
// membership flip of that group's record.
type recordRig struct {
	stored, mem *Incremental
	groups      storage.Store
	key         []byte
	model       groupModel
}

// The rig's schema and rule: R(X, B) with X → B.
var (
	rigSchema = relation.MustSchema("R", "X", "B")
	rigRules  = []cfd.CFD{{ID: "phi", LHS: []string{"X"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "_"}}
)

func memStorage() Storage {
	return Storage{Tuples: storage.NewMem(), Groups: storage.NewMem()}
}

func newRecordRig(tb testing.TB) *recordRig {
	tb.Helper()
	st := memStorage()
	rig := &recordRig{groups: st.Groups, model: groupModel{}}
	var err error
	if rig.stored, err = NewIncrementalStored(relation.New(rigSchema), rigRules, st); err != nil {
		tb.Fatal(err)
	}
	if rig.mem, err = NewIncremental(relation.New(rigSchema), rigRules); err != nil {
		tb.Fatal(err)
	}
	rig.key = GroupKey(nil, rig.stored.gst.tags[0], rigTuple(0, "").AppendKey(nil, rig.stored.comp[0].LHSCols))
	return rig
}

func rigTuple(id relation.TupleID, b string) relation.Tuple {
	return relation.Tuple{ID: id, Values: []string{"x", b}}
}

// step applies one unit update to both maintainers and the model, and
// checks the stored ∆V against the in-memory engine's and the stored
// record's bytes against the model codec's.
func (rig *recordRig) step(tb testing.TB, kind relation.UpdateKind, b string, id relation.TupleID) {
	tb.Helper()
	u := relation.Update{Kind: kind, Tuple: rigTuple(id, b)}
	sv, mv := rig.stored.v.Clone(), rig.mem.v.Clone()
	if err := rig.stored.applyUnit(u); err != nil {
		tb.Fatalf("stored %v (%q, %d): %v", kind, b, id, err)
	}
	if err := rig.mem.applyUnit(u); err != nil {
		tb.Fatalf("mem %v (%q, %d): %v", kind, b, id, err)
	}
	sd, md := cfd.DeltaBetween(sv, rig.stored.v), cfd.DeltaBetween(mv, rig.mem.v)
	if sd.Fingerprint() != md.Fingerprint() || sd.Size() != md.Size() {
		tb.Fatalf("%v (%q, %d): stored ∆V has %d marks, in-memory ∆V %d, or they differ", kind, b, id, sd.Size(), md.Size())
	}
	if kind == relation.Insert {
		if rig.model[b] == nil {
			rig.model[b] = map[relation.TupleID]struct{}{}
		}
		rig.model[b][id] = struct{}{}
	} else {
		delete(rig.model[b], id)
		if len(rig.model[b]) == 0 {
			delete(rig.model, b)
		}
	}
	rig.check(tb, fmt.Sprintf("%v (%q, %d)", kind, b, id))
}

// check compares the stored record with the model's encoding; an empty
// group must have no record at all.
func (rig *recordRig) check(tb testing.TB, ctx string) {
	tb.Helper()
	got, ok, err := rig.groups.Get(rig.key)
	if err != nil {
		tb.Fatal(err)
	}
	if len(rig.model) == 0 {
		if ok {
			tb.Fatalf("%s: emptied group still has a record: %x", ctx, got)
		}
		return
	}
	if want := encodeGroup(nil, rig.model); !ok || !bytes.Equal(got, want) {
		tb.Fatalf("%s: record (present=%v)\n got %x\nwant %x", ctx, ok, got, want)
	}
}

// TestGroupRecordDifferential runs random insert/delete sequences
// through the editor and the map model, comparing bytes and ∆V after
// every step. B-values include the empty string and prefixes of each
// other; ids are drawn across every varint width, negatives included.
func TestGroupRecordDifferential(t *testing.T) {
	bvals := []string{"", "a", "aa", "ab", "b", strings.Repeat("z", 130)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rig := newRecordRig(t)
		live := map[relation.TupleID]string{}
		var ids []relation.TupleID
		for op := 0; op < 400; op++ {
			if len(ids) == 0 || rng.Intn(5) < 3 {
				id := relation.TupleID(rng.Uint64() >> uint(rng.Intn(64)))
				if rng.Intn(8) == 0 {
					id = -id
				}
				if _, dup := live[id]; dup {
					continue
				}
				b := bvals[rng.Intn(len(bvals))]
				rig.step(t, relation.Insert, b, id)
				live[id] = b
				ids = append(ids, id)
			} else {
				k := rng.Intn(len(ids))
				id := ids[k]
				ids = append(ids[:k], ids[k+1:]...)
				rig.step(t, relation.Delete, live[id], id)
				delete(live, id)
			}
		}
		// Drain to empty: every delete transition on the way down.
		for _, id := range ids {
			rig.step(t, relation.Delete, live[id], id)
		}
	}
}

// TestGroupRecordBoundaries walks the editor through each splice
// position and width change by hand.
func TestGroupRecordBoundaries(t *testing.T) {
	const ins, del = relation.Insert, relation.Delete
	type step struct {
		kind relation.UpdateKind
		b    string
		id   relation.TupleID
	}
	run := func(name string, steps []step) {
		t.Run(name, func(t *testing.T) {
			rig := newRecordRig(t)
			for _, s := range steps {
				rig.step(t, s.kind, s.b, s.id)
			}
		})
	}
	run("first and last id of first and last class", []step{
		{ins, "a", 50}, {ins, "m", 51}, {ins, "z", 52},
		{ins, "a", 10}, {ins, "a", 90}, {ins, "z", 11}, {ins, "z", 91}, {ins, "m", 60},
		{del, "a", 10}, {del, "a", 90}, {del, "z", 91}, {del, "z", 11}, {del, "m", 51},
	})
	run("new smallest and largest B", []step{
		{ins, "m", 1}, {ins, "a", 2}, {ins, "z", 3}, {ins, "", 4}, {ins, "zz", 5},
		{del, "", 4}, {del, "zz", 5}, {del, "m", 1},
	})
	run("emptying a class then the group", []step{
		{ins, "a", 1}, {ins, "b", 2}, {ins, "b", 3},
		{del, "a", 1}, {del, "b", 2}, {del, "b", 3},
		{ins, "c", 4}, {del, "c", 4},
	})
	var width []step
	for id := relation.TupleID(1); id <= 129; id++ { // member count 127 → 128 → 129
		width = append(width, step{ins, "b", id})
	}
	width = append(width, step{ins, "a", 500}, step{del, "b", 64}, step{del, "b", 129}, step{del, "b", 1}) // and back to 126
	run("member count varint changes width", width)
	var classes []step
	for c := 0; c < 129; c++ { // class count 127 → 128 → 129
		classes = append(classes, step{ins, fmt.Sprintf("b%03d", c), relation.TupleID(c)})
	}
	classes = append(classes, step{del, "b000", 0}, step{del, "b128", 128}, step{del, "b064", 64})
	run("class count varint changes width", classes)
	var ids []step
	for shift := uint(0); shift < 63; shift += 7 { // both sides of every width boundary
		ids = append(ids, step{ins, "a", 1<<shift - 1}, step{ins, "b", 1 << shift})
	}
	ids = append(ids, step{ins, "a", -1}, step{ins, "b", -1 << 63}, step{ins, "a", 1<<63 - 1}) // ten-byte varints
	for _, s := range append([]step(nil), ids...) {
		ids = append(ids, step{del, s.b, s.id})
	}
	run("ids of every varint width", ids)
}

// TestGroupRecordRejects covers updates that disagree with the record;
// records that are not canonical are FuzzGroupRecord's seed corpus.
func TestGroupRecordRejects(t *testing.T) {
	rig := newRecordRig(t)
	rig.step(t, relation.Insert, "a", 5)
	rig.step(t, relation.Insert, "b", 7)
	flip := func(kind relation.UpdateKind, b string, id relation.TupleID) error {
		return rig.stored.applyRuleStored(0, relation.Update{Kind: kind, Tuple: rigTuple(id, b)})
	}
	for _, c := range []struct {
		b  string
		id relation.TupleID
	}{{"a", 6}, {"a", 7}, {"c", 5}, {"", 5}} {
		if err := flip(relation.Delete, c.b, c.id); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tuple %d not indexed for rule phi", c.id)) {
			t.Errorf("delete of unindexed (%q, %d): err = %v", c.b, c.id, err)
		}
	}
	if err := flip(relation.Insert, "a", 5); err == nil || !strings.Contains(err.Error(), "already indexed") {
		t.Errorf("insert of an indexed member: err = %v", err)
	}
	rig.check(t, "after rejected updates") // a rejected update writes nothing
}

// FuzzGroupRecord feeds arbitrary bytes to the editor as a stored group
// record and inserts, then deletes, an arbitrary member. It must never
// panic; it must accept exactly the canonical records, failing the rest
// with ErrStoreCorrupt and the rule tag; and what it writes must be the
// model's encoding of the edited group — hence canonical again, and no
// larger than the input plus one entry.
func FuzzGroupRecord(f *testing.F) {
	good := []byte{2, 1, 'a', 2, 5, 9, 1, 'c', 1, 7}
	f.Add([]byte{1, 1, 'a', 1, 5}, "a", int64(5))
	f.Add([]byte{1, 1, 'a', 1, 5}, "b", int64(6))
	f.Add(good, "b", int64(300))
	f.Add(good, "c", int64(7))
	f.Add([]byte{2, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 'c', 1, 7}, "", int64(-1))
	// Not canonical, each to be refused as corrupt: run as plain tests.
	for _, bad := range [][]byte{
		{},                                      // empty record
		{0},                                     // zero classes
		good[:len(good)-1],                      // truncated
		append(good[:len(good):len(good)], 0),   // trailing byte
		append([]byte{0x82, 0x00}, good[1:]...), // padded class count
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // class count past the input
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{1, 0xff, 0x01, 'a'},            // B length past the input
		{1, 1, 'a', 0},                  // empty class
		{1, 1, 'a', 9, 5},               // member count past the input
		{2, 1, 'b', 1, 7, 1, 'a', 1, 5}, // classes out of order
		{2, 1, 'a', 1, 5, 1, 'a', 1, 7}, // duplicate class
		{1, 1, 'a', 2, 7, 5},            // ids out of order
		{1, 1, 'a', 2, 5, 5},            // duplicate id
		{1, 1, 'a', 1, 0x85, 0x00},      // padded id
		bytes.Repeat([]byte{0x80}, 12),  // varint that never ends
	} {
		if _, ok := canonical(bad); ok {
			f.Fatalf("seed %x is canonical by the model", bad)
		}
		f.Add(bad, "a", int64(5))
	}
	rig := newRecordRig(f)
	f.Fuzz(func(t *testing.T, raw []byte, b string, rawID int64) {
		id := relation.TupleID(rawID)
		for _, kind := range []relation.UpdateKind{relation.Insert, relation.Delete} {
			if err := rig.groups.Put(rig.key, raw); err != nil {
				t.Fatal(err)
			}
			err := rig.stored.applyRuleStored(0, relation.Update{Kind: kind, Tuple: rigTuple(id, b)})
			got, ok, _ := rig.groups.Get(rig.key)
			model, canon := canonical(raw)
			if !canon {
				if !errors.Is(err, xerr.ErrStoreCorrupt) || !strings.Contains(err.Error(), "tag 1") {
					t.Fatalf("%v on non-canonical %x: err = %v, want ErrStoreCorrupt naming tag 1", kind, raw, err)
				}
				if !ok || !bytes.Equal(got, raw) {
					t.Fatalf("%v rewrote a rejected record %x to %x", kind, raw, got)
				}
				continue
			}
			if errors.Is(err, xerr.ErrStoreCorrupt) {
				t.Fatalf("%v rejected canonical record %x: %v", kind, raw, err)
			}
			_, member := model[b][id]
			if member == (kind == relation.Insert) {
				// The update disagrees with the record: refused, nothing written.
				if err == nil || !bytes.Equal(got, raw) {
					t.Fatalf("%v of (%q, %d) on %x: err = %v, record now %x", kind, b, id, raw, err, got)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%v of (%q, %d) on %x: %v", kind, b, id, raw, err)
			}
			if kind == relation.Insert {
				if model[b] == nil {
					model[b] = map[relation.TupleID]struct{}{}
				}
				model[b][id] = struct{}{}
			} else if delete(model[b], id); len(model[b]) == 0 {
				delete(model, b)
			}
			if len(model) == 0 {
				if ok {
					t.Fatalf("%v emptied %x but left record %x", kind, raw, got)
				}
				continue
			}
			if want := encodeGroup(nil, model); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%v of (%q, %d) on %x:\n got %x\nwant %x", kind, b, id, raw, got, want)
			}
			if entry := len(b) + 3*binary.MaxVarintLen64 + 2; len(got) > len(raw)+entry {
				t.Fatalf("%v grew a %d-byte record to %d bytes (entry bound %d)", kind, len(raw), len(got), entry)
			}
		}
	})
}
