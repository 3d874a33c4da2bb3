package relation

import (
	"encoding/binary"
	"fmt"

	"repro/internal/storage"
)

// Stored mode: tuple values live in a storage.Store keyed by the
// tuple id as a big-endian uint64, so consecutive ids share pages and
// storage.Uint64Pager gives a monotone pager. The value is the
// AppendKeyVals encoding of the tuple's values — the same prefix-free
// uvarint framing as grouping keys, decoded by schema width.
//
// The membership index (Relation.ids) stays resident: ~8 bytes per
// tuple so Has/Len/dup-checks never fault, while the values — the bulk
// of the bytes — page in and out under the store's cache budget.

// TupleKeyShift is the Uint64Pager shift for tuple stores: pages of
// 256 consecutive tuple ids.
const TupleKeyShift = 8

// TupleKey appends the store key of a tuple id to dst.
func TupleKey(dst []byte, id TupleID) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(id))
}

type storedRel struct {
	st     storage.Store
	keyBuf []byte
	encBuf []byte
	// err is the first store or decode failure; once set it sticks, and
	// StoreErr reports it to the engine that owns the relation.
	err error
}

// NewStored returns an empty relation whose tuple values live in st.
// If st already holds records (a reopened file), the membership index
// is rebuilt by one scan. The store must have been opened with a
// pager clustering consecutive 8-byte big-endian keys (TupleKeyShift).
func NewStored(s *Schema, st storage.Store) (*Relation, error) {
	r := &Relation{Schema: s, sr: &storedRel{st: st}, idsOK: true}
	err := st.Each(func(k, _ []byte) bool {
		if len(k) == 8 {
			r.ids = append(r.ids, TupleID(binary.BigEndian.Uint64(k)))
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("relation: stored scan: %w", err)
	}
	// Store iteration is unsigned-key order; TupleIDs compare signed.
	// Positive ids (the only ids the system mints) arrive sorted, so
	// this is a no-op sort in practice.
	if len(r.ids) > 1 {
		for i := 1; i < len(r.ids); i++ {
			if r.ids[i] < r.ids[i-1] {
				sortIDs(r.ids)
				break
			}
		}
	}
	return r, nil
}

func sortIDs(ids []TupleID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Stored reports whether the relation's tuples live behind a store.
func (r *Relation) Stored() bool { return r.sr != nil }

// Flush makes buffered stored-mode writes durable; a no-op in map
// mode. The engines call it at protocol-round boundaries.
func (r *Relation) Flush() error {
	if r.sr == nil {
		return nil
	}
	return r.sr.st.Flush()
}

// StoreErr returns the first store or decode failure the stored
// relation met (nil in map mode and while the store is healthy). A read
// that fails reports the tuple as absent; the failure stays here for the
// engine to surface.
func (r *Relation) StoreErr() error {
	if r.sr == nil {
		return nil
	}
	return r.sr.err
}

// StoreStats reports the backing store's cache counters (zero in map
// mode).
func (r *Relation) StoreStats() storage.Stats {
	if r.sr == nil {
		return storage.Stats{}
	}
	return r.sr.st.Stats()
}

func (sr *storedRel) put(t Tuple) error {
	sr.keyBuf = TupleKey(sr.keyBuf[:0], t.ID)
	sr.encBuf = AppendKeyVals(sr.encBuf[:0], t.Values)
	return sr.fail(sr.st.Put(sr.keyBuf, sr.encBuf))
}

func (sr *storedRel) delete(id TupleID) error {
	sr.keyBuf = TupleKey(sr.keyBuf[:0], id)
	return sr.fail(sr.st.Delete(sr.keyBuf))
}

// fail records err as the sticky failure if it is the first, and
// returns it.
func (sr *storedRel) fail(err error) error {
	if err != nil && sr.err == nil {
		sr.err = err
	}
	return err
}

// get fetches and decodes a tuple the membership index says exists. A
// store failure, a record missing behind the index or an undecodable
// record is recorded (see StoreErr) and reported as not found.
func (sr *storedRel) get(s *Schema, id TupleID) (Tuple, bool) {
	sr.keyBuf = TupleKey(sr.keyBuf[:0], id)
	raw, ok, err := sr.st.Get(sr.keyBuf)
	if err == nil && !ok {
		err = fmt.Errorf("membership index and store disagree")
	}
	var vals []string
	if err == nil {
		vals, err = DecodeKeyVals(raw, s.Width())
	}
	if err != nil {
		sr.fail(fmt.Errorf("relation: stored get %d: %w", id, err))
		return Tuple{}, false
	}
	return Tuple{ID: id, Values: vals}, true
}

// DecodeKeyVals parses width values from the AppendKeyVals encoding.
func DecodeKeyVals(b []byte, width int) ([]string, error) {
	vals := make([]string, width)
	for i := 0; i < width; i++ {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return nil, fmt.Errorf("relation: bad value frame at field %d", i)
		}
		vals[i] = string(b[w : w+int(n)])
		b = b[w+int(n):]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after %d values", len(b), width)
	}
	return vals, nil
}
