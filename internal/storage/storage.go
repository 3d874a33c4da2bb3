// Package storage is the out-of-core state subsystem: a pluggable
// key/value Store behind which relation tuples and grouping indexes can
// live on disk instead of RAM, so the capacity of a session is bounded
// by disk size and a configurable page-cache budget rather than by
// memory.
//
// Two backends implement Store:
//
//   - MemStore — plain in-process maps. The default; sessions built
//     without a storage dir never touch this package's disk code and
//     keep their existing allocation profile bit-for-bit.
//   - DiskStore — a page-structured append-only file framed by
//     internal/seglog (the header, record frames, open-time scan and
//     atomic replace every durable file shares), with an LRU cache of
//     decoded pages bounded by a byte budget, write-back batching (dirty
//     pages pinned until Flush, which the engines call once per protocol
//     round), and compaction.
//
// Keys and values are arbitrary byte strings; iteration order is
// deterministic (ascending page number, then bytewise-ascending key
// within a page) so every sweep built on a Store stays a pure function
// of its seed regardless of backend.
package storage

import "encoding/binary"

// Store is a mutable key/value map with deterministic iteration.
//
// Ownership: Put copies both key and value. The value returned by Get
// and the slices passed to Each/EachRange callbacks are owned by the
// store and valid only until the next store operation — decode or copy
// immediately, and do not call store methods from inside a callback.
type Store interface {
	// Get returns the value for key, or ok=false when absent.
	Get(key []byte) (val []byte, ok bool, err error)
	// Put inserts or replaces key.
	Put(key, val []byte) error
	// Delete removes key; deleting an absent key is a no-op.
	Delete(key []byte) error
	// Each calls fn for every record in deterministic order until fn
	// returns false.
	Each(fn func(key, val []byte) bool) error
	// EachRange calls fn for every record with lo <= key < hi (bytewise;
	// nil hi means unbounded) in deterministic order until fn returns
	// false. A disk backend with a monotone pager faults only the pages
	// that can intersect the range.
	EachRange(lo, hi []byte, fn func(key, val []byte) bool) error
	// Len reports the number of live records.
	Len() int
	// Flush makes buffered writes durable. The engines call it at
	// protocol-round boundaries so write-back batching aligns with
	// rounds.
	Flush() error
	// Stats reports cache and file counters (zero-valued for MemStore).
	Stats() Stats
	// Close flushes and releases the backing file, if any.
	Close() error
}

// Stats are cumulative counters for one store. Only ResidentPages,
// ResidentBytes, DirtyPages and DiskBytes are instantaneous gauges; the
// rest are monotone since open. Counters depend on the cache budget and
// the access sequence; for a given input both are fixed, so the same
// run repeats them bit for bit.
type Stats struct {
	Hits          uint64 // page lookups served from the cache
	Misses        uint64 // page lookups that had to fault or create
	Faults        uint64 // pages decoded from disk
	Evictions     uint64 // clean pages dropped to respect the budget
	FlushedPages  uint64 // page records appended by Flush
	FlushedBytes  uint64 // payload bytes appended by Flush
	Compactions   uint64 // temp+fsync+rename rewrites of the data file
	ResidentPages int    // decoded pages currently cached
	ResidentBytes int64  // approximate decoded bytes currently cached
	DirtyPages    int    // cached pages with unflushed writes
	DiskBytes     int64  // current size of the backing file
}

// Uint64Pager maps keys whose first 8 bytes are a big-endian uint64
// onto pages of 2^shift consecutive key values. It is monotone in the
// key ordering, so DiskOptions.Monotone range scans apply. Keys shorter
// than 8 bytes are zero-padded on the right.
func Uint64Pager(shift uint) func(key []byte) uint32 {
	return func(key []byte) uint32 {
		var b [8]byte
		copy(b[:], key)
		return uint32(binary.BigEndian.Uint64(b[:]) >> shift)
	}
}

// FNVPager spreads keys over 2^bits pages by FNV-1a hash: the pager for
// point-lookup workloads with no range scans (it is NOT monotone — do
// not combine with DiskOptions.Monotone).
func FNVPager(bits uint) func(key []byte) uint32 {
	mask := uint32(1)<<bits - 1
	return func(key []byte) uint32 {
		h := uint32(2166136261)
		for _, c := range key {
			h = (h ^ uint32(c)) * 16777619
		}
		return h & mask
	}
}
