package relation

import (
	"fmt"
	"sort"

	"repro/internal/xerr"
)

// Relation is an instance of a schema: a set of tuples keyed by TupleID.
// Iteration order is by ascending TupleID so every run of every
// algorithm is deterministic.
//
// Tuples live either in an in-process map (the default) or, for
// relations built with NewStored, behind a storage.Store whose page
// cache bounds resident memory — the out-of-core mode. Both modes keep
// the sorted id view cached: the map mode invalidates it on mutation
// (ascending inserts, the ingest common case, extend it in place), the
// stored mode maintains it as the authoritative membership index so
// Has/Len never fault a page.
type Relation struct {
	Schema *Schema
	tuples map[TupleID]Tuple // map mode; nil in stored mode

	ids   []TupleID // sorted id cache (map mode) / membership index (stored mode)
	idsOK bool      // map mode: cache validity; stored mode: always true

	sr *storedRel // non-nil selects stored mode
}

// New returns an empty relation over schema s.
func New(s *Schema) *Relation {
	return &Relation{Schema: s, tuples: make(map[TupleID]Tuple), idsOK: true}
}

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.sr != nil {
		return len(r.ids)
	}
	return len(r.tuples)
}

// Has reports whether a tuple with the given id is present. In stored
// mode this is a binary search over the resident membership index — it
// never faults a page.
func (r *Relation) Has(id TupleID) bool {
	if r.sr != nil {
		_, ok := r.findID(id)
		return ok
	}
	_, ok := r.tuples[id]
	return ok
}

// Get returns the tuple with the given id.
func (r *Relation) Get(id TupleID) (Tuple, bool) {
	if r.sr != nil {
		if _, ok := r.findID(id); !ok {
			return Tuple{}, false
		}
		return r.sr.get(r.Schema, id), true
	}
	t, ok := r.tuples[id]
	return t, ok
}

// Insert adds a tuple; inserting an existing id is an error (the paper
// treats modification as deletion followed by insertion).
func (r *Relation) Insert(t Tuple) error {
	if len(t.Values) != r.Schema.Width() {
		return fmt.Errorf("relation: insert into %q: tuple %d has %d values, want %d: %w",
			r.Schema.Name, t.ID, len(t.Values), r.Schema.Width(), xerr.ErrArityMismatch)
	}
	if r.sr != nil {
		i, dup := r.findID(t.ID)
		if dup {
			return fmt.Errorf("relation: insert into %q: duplicate tuple id %d", r.Schema.Name, t.ID)
		}
		if err := r.sr.put(t); err != nil {
			return err
		}
		r.insertIDAt(i, t.ID)
		return nil
	}
	if _, dup := r.tuples[t.ID]; dup {
		return fmt.Errorf("relation: insert into %q: duplicate tuple id %d", r.Schema.Name, t.ID)
	}
	r.tuples[t.ID] = t
	// Ascending inserts — the ingest common case — extend the cached
	// sorted view in place; anything else invalidates it.
	if r.idsOK && (len(r.ids) == 0 || t.ID > r.ids[len(r.ids)-1]) {
		r.ids = append(r.ids, t.ID)
	} else {
		r.idsOK = false
	}
	return nil
}

// MustInsert is Insert that panics on error.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// Delete removes the tuple with the given id, returning it.
func (r *Relation) Delete(id TupleID) (Tuple, error) {
	if r.sr != nil {
		i, ok := r.findID(id)
		if !ok {
			return Tuple{}, fmt.Errorf("relation: delete from %q: no tuple id %d", r.Schema.Name, id)
		}
		t := r.sr.get(r.Schema, id)
		if err := r.sr.delete(id); err != nil {
			return Tuple{}, err
		}
		r.ids = append(r.ids[:i], r.ids[i+1:]...)
		return t, nil
	}
	t, ok := r.tuples[id]
	if !ok {
		return Tuple{}, fmt.Errorf("relation: delete from %q: no tuple id %d", r.Schema.Name, id)
	}
	delete(r.tuples, id)
	r.idsOK = false
	return t, nil
}

// findID binary-searches the sorted id index (stored mode).
func (r *Relation) findID(id TupleID) (int, bool) {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	return i, i < len(r.ids) && r.ids[i] == id
}

// insertIDAt inserts id at index i, keeping r.ids sorted.
func (r *Relation) insertIDAt(i int, id TupleID) {
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
}

// sortedIDs returns the cached ascending id view, rebuilding it only
// after an invalidating mutation. The returned slice is shared — it is
// for package-internal read-only iteration.
func (r *Relation) sortedIDs() []TupleID {
	if r.sr == nil && !r.idsOK {
		r.ids = r.ids[:0]
		for id := range r.tuples {
			r.ids = append(r.ids, id)
		}
		sort.Slice(r.ids, func(i, j int) bool { return r.ids[i] < r.ids[j] })
		r.idsOK = true
	}
	return r.ids
}

// IDs returns all tuple ids in ascending order. The slice is the
// caller's to keep or mutate; the sorted view it is copied from is
// cached, so repeated calls between mutations cost one copy, not a
// sort.
func (r *Relation) IDs() []TupleID {
	return append([]TupleID(nil), r.sortedIDs()...)
}

// Tuples returns all tuples in ascending TupleID order.
func (r *Relation) Tuples() []Tuple {
	ids := r.sortedIDs()
	out := make([]Tuple, len(ids))
	for i, id := range ids {
		out[i], _ = r.Get(id)
	}
	return out
}

// Each calls fn for every tuple in ascending TupleID order, stopping early
// if fn returns false. In stored mode tuples fault in page by page;
// sequential ids share pages, so a full scan faults each page once.
func (r *Relation) Each(fn func(Tuple) bool) {
	for _, id := range r.sortedIDs() {
		t, _ := r.Get(id)
		if !fn(t) {
			return
		}
	}
}

// EachInsertChunk presents the relation as insertions, in ascending
// TupleID order, to fn at most n at a time — how the distributed engines
// seed their sites through the batch protocol without materializing the
// whole relation as one ∆D. The slice passed to fn is reused between
// calls. The first error from fn stops the scan and is returned.
func (r *Relation) EachInsertChunk(n int, fn func(UpdateList) error) error {
	chunk := make(UpdateList, 0, n)
	var err error
	r.Each(func(t Tuple) bool {
		chunk = append(chunk, Update{Kind: Insert, Tuple: t})
		if len(chunk) == n {
			err = fn(chunk)
			chunk = chunk[:0]
		}
		return err == nil
	})
	if err == nil && len(chunk) > 0 {
		err = fn(chunk)
	}
	return err
}

// Clone returns a deep copy of the relation. Cloning a stored relation
// materializes an in-memory one — clones exist to be mutated
// independently (mirrors, oracles), not to share a disk file.
func (r *Relation) Clone() *Relation {
	c := New(r.Schema)
	if r.sr != nil {
		for _, id := range r.ids {
			c.MustInsert(r.sr.get(r.Schema, id))
		}
		return c
	}
	for id, t := range r.tuples {
		c.tuples[id] = t.Clone()
	}
	c.idsOK = false
	return c
}

// MaxID returns the largest TupleID present, or 0 for an empty relation.
func (r *Relation) MaxID() TupleID {
	if ids := r.sortedIDs(); len(ids) > 0 {
		return ids[len(ids)-1]
	}
	return 0
}

// Equal reports whether two relations contain exactly the same tuples
// (ids and values) over equal schemas. Either side may be stored.
func (r *Relation) Equal(o *Relation) bool {
	if !r.Schema.Equal(o.Schema) || r.Len() != o.Len() {
		return false
	}
	eq := true
	r.Each(func(t Tuple) bool {
		ot, ok := o.Get(t.ID)
		if !ok || !t.EqualValues(ot) {
			eq = false
			return false
		}
		return true
	})
	return eq
}
