package relation

import "fmt"

// UpdateKind distinguishes tuple insertions from deletions. A modification
// is represented, as in the paper, by a deletion followed by an insertion.
type UpdateKind int

const (
	// Insert adds a new tuple (∆D+).
	Insert UpdateKind = iota
	// Delete removes an existing tuple (∆D−).
	Delete
)

func (k UpdateKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("UpdateKind(%d)", int(k))
	}
}

// Update is a single tuple insertion or deletion. Deletions carry the full
// tuple value so a site can locate its equivalence classes without a
// lookup round-trip (exactly as the paper's algorithms assume).
type Update struct {
	Kind  UpdateKind
	Tuple Tuple
}

// UpdateList is a batch update ∆D: an ordered list of insertions and
// deletions.
type UpdateList []Update

// Insertions returns the sub-list ∆D+ of insertions, in order.
func (ul UpdateList) Insertions() UpdateList {
	var out UpdateList
	for _, u := range ul {
		if u.Kind == Insert {
			out = append(out, u)
		}
	}
	return out
}

// Normalize removes pairs of updates on the same tuple id that cancel each
// other (an insertion later deleted), implementing line 1 of the paper's
// incVer / incHor batch algorithms. A delete-then-insert of the same id (a
// modification) is preserved in order.
func (ul UpdateList) Normalize() UpdateList { return ul.NormalizeInto(nil) }

// NormalizeInto is Normalize writing the filtered batch into dst's backing
// array (grown as needed), so a driver that normalizes every batch of a
// stream can reuse one scratch slice instead of allocating per batch.
// When nothing cancels, ul itself is returned and dst is untouched.
func (ul UpdateList) NormalizeInto(dst UpdateList) UpdateList {
	cancelled := make(map[int]bool)
	// lastInsert maps a tuple id to the position of a not-yet-cancelled
	// insertion of that id.
	lastInsert := make(map[TupleID]int)
	for i, u := range ul {
		switch u.Kind {
		case Insert:
			lastInsert[u.Tuple.ID] = i
		case Delete:
			if j, ok := lastInsert[u.Tuple.ID]; ok {
				cancelled[i] = true
				cancelled[j] = true
				delete(lastInsert, u.Tuple.ID)
			}
		}
	}
	if len(cancelled) == 0 {
		return ul
	}
	out := dst[:0]
	for i, u := range ul {
		if !cancelled[i] {
			out = append(out, u)
		}
	}
	return out
}

// Apply mutates r by applying every update in order, implementing D ⊕ ∆D.
func (ul UpdateList) Apply(r *Relation) error {
	for _, u := range ul {
		switch u.Kind {
		case Insert:
			if err := r.Insert(u.Tuple); err != nil {
				return err
			}
		case Delete:
			if _, err := r.Delete(u.Tuple.ID); err != nil {
				return err
			}
		default:
			return fmt.Errorf("relation: unknown update kind %d", u.Kind)
		}
	}
	return nil
}

// Validate checks the batch is applicable to r: insertions reference fresh
// ids, deletions reference live ids, respecting in-batch ordering.
func (ul UpdateList) Validate(r *Relation) error {
	live := make(map[TupleID]bool, r.Len())
	for _, id := range r.IDs() {
		live[id] = true
	}
	for i, u := range ul {
		switch u.Kind {
		case Insert:
			if live[u.Tuple.ID] {
				return fmt.Errorf("relation: update %d inserts existing id %d", i, u.Tuple.ID)
			}
			live[u.Tuple.ID] = true
		case Delete:
			if !live[u.Tuple.ID] {
				return fmt.Errorf("relation: update %d deletes missing id %d", i, u.Tuple.ID)
			}
			delete(live, u.Tuple.ID)
		}
	}
	return nil
}
