package storage

import "sort"

// MemStore is the in-memory backend: a plain map with sorted
// iteration. It is the default everywhere a Store is accepted, and
// sessions that never opt into a storage dir pay nothing for the
// abstraction — the engines keep their original map-based code paths
// and never construct a MemStore at all; this type exists for tests
// and as the differential oracle for DiskStore.
type MemStore struct {
	m map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

func (s *MemStore) Get(key []byte) ([]byte, bool, error) {
	v, ok := s.m[string(key)]
	return v, ok, nil
}

func (s *MemStore) Put(key, val []byte) error {
	s.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (s *MemStore) Delete(key []byte) error {
	delete(s.m, string(key))
	return nil
}

func (s *MemStore) Each(fn func(key, val []byte) bool) error {
	return s.EachRange(nil, nil, fn)
}

func (s *MemStore) EachRange(lo, hi []byte, fn func(key, val []byte) bool) error {
	keys := make([]string, 0, len(s.m))
	slo, shi := string(lo), string(hi)
	for k := range s.m {
		if k < slo || (hi != nil && k >= shi) {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), s.m[k]) {
			return nil
		}
	}
	return nil
}

func (s *MemStore) Len() int     { return len(s.m) }
func (s *MemStore) Flush() error { return nil }
func (s *MemStore) Stats() Stats { return Stats{} }
func (s *MemStore) Close() error { return nil }
