package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// On-disk page payload codec. A page is a flat run of records, each a
// uvarint key length, the key bytes, a uvarint value length, the value
// bytes, with keys in ascending bytewise order. The payload carries no
// count or index — decoding walks to the end — so a page is exactly as
// large as its live records. The CRC framing around each page record
// (seglog.WriteFramed) already catches bit rot; decodePage's own
// checks exist for the fuzz-tested hostile case: a CRC-valid frame
// whose payload was never a page.

// entryOverhead approximates the in-memory cost of one cached record
// beyond its key and value bytes (map header share, string header,
// slice header). Used only for cache-budget accounting.
const entryOverhead = 48

// encodePage appends the sorted records of m to buf and returns it.
func encodePage(buf []byte, m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(m[k])))
		buf = append(buf, m[k]...)
	}
	return buf
}

// decodePage parses a page payload into a fresh map and its
// approximate decoded size. It never panics on hostile input: a
// truncated or oversized length yields an error, not an allocation.
func decodePage(p []byte) (map[string][]byte, int64, error) {
	m := make(map[string][]byte)
	var size int64
	for len(p) > 0 {
		k, rest, err := pageField(p)
		if err != nil {
			return nil, 0, fmt.Errorf("page key: %w", err)
		}
		v, rest, err := pageField(rest)
		if err != nil {
			return nil, 0, fmt.Errorf("page value: %w", err)
		}
		// Hostile payloads may repeat a key (encodePage never does);
		// last wins, and the accounting must not double-count.
		if old, ok := m[string(k)]; ok {
			size -= int64(len(k)+len(old)) + entryOverhead
		}
		m[string(k)] = append([]byte(nil), v...)
		size += int64(len(k)+len(v)) + entryOverhead
		p = rest
	}
	return m, size, nil
}

// pageField reads one uvarint-length-prefixed field, validating the
// length against the remaining bytes before any allocation.
func pageField(p []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(p)
	if w <= 0 {
		return nil, nil, fmt.Errorf("bad length prefix")
	}
	p = p[w:]
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(p))
	}
	return p[:n], p[n:], nil
}
