package vertical

import (
	"encoding/binary"
	"hash/fnv"
)

// The bitset columns of the same-site messages (messages.go): a bitset
// over [0, width) is words(width) uint64s, bit i in word i>>6; a table of
// rows lays count such bitsets end to end.

// bitset is one row.
type bitset []uint64

func words(width int) int { return (width + 63) >> 6 }

func (s bitset) has(bit int) bool { return s[bit>>6]&(1<<(bit&63)) != 0 }
func (s bitset) set(bit int)      { s[bit>>6] |= 1 << (bit & 63) }

func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// validRows reports whether rows is count bitsets over [0, width) with no
// bit at or beyond width set: what a handler checks before it indexes by
// a wire-supplied bit, and the driver before it trusts a reply's.
func validRows(rows []uint64, count, width int) bool {
	w := words(width)
	if len(rows) != count*w {
		return false
	}
	if used := width & 63; used != 0 {
		for last := w - 1; last < len(rows); last += w {
			if rows[last]>>used != 0 {
				return false
			}
		}
	}
	return true
}

// ruleGen stamps a rule numbering: a hash of the rule ids in force, in
// numbering (ascending id) order. Driver and sites each compute it from
// the rules they hold, so it moves exactly when the numbering may have —
// inside v.addRules and v.dropRules — and a site rebuilt from a hello or
// a checkpoint arrives at the driver's value without being told it.
func ruleGen(sortedIDs []string) uint32 {
	h := fnv.New32a()
	var n [binary.MaxVarintLen64]byte
	for _, id := range sortedIDs {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(id)))])
		h.Write([]byte(id))
	}
	return h.Sum32()
}
