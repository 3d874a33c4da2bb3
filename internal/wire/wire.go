// Package wire is the payload codec of the driver↔site call path: a
// positional, descriptor-free binary encoding of the closed set of Go
// request/reply types the protocol handlers exchange.
//
// A value's bytes carry no type information at all — both ends hold the
// same Go type, and the encoding is that type's fields in declaration
// order — so every payload is self-contained (it can sit in a replay
// log, a delta log or a reply window and be decoded alone, which a
// long-lived gob stream cannot offer) and costs nothing to describe.
// The encode/decode plan of a type is built once by reflection, cached,
// and reused for every later value; Register builds it eagerly so an
// unsupported field kind surfaces at start-up, and PlanOf hands it to a
// holder of one type's values (a call path's method handle), which then
// sizes, encodes and decodes them with no lookup at all. Size is a
// counting pass over the same plan: the length Marshal would return,
// with nothing written.
//
// Encoding rules:
//
//	bool                one byte, 0 or 1
//	int, int8…int64     zig-zag uvarint
//	uint, uint8…uint64  uvarint
//	string, []byte      uvarint length, then the bytes
//	[]T                 uvarint length, then the elements
//	map[K]V             0 for a nil map, else uvarint len+1 followed by the
//	                    (key, value) pairs in ascending encoded-key order
//	*T                  presence byte (0 nil, 1 set), then the value
//	struct              the exported fields in declaration order
//
// Unexported fields are skipped, and a zero-length slice decodes to nil
// — both exactly as encoding/gob behaves, which the call sites relied on
// before this codec replaced it. Every other kind (floats, arrays,
// interfaces, channels, functions, recursive types, slices of zero-size
// elements) is rejected when the plan is built.
//
// Slices of exactly []int64, []uint64, []int, []bool and []string — the
// columns the protocol messages are made of — skip the per-element
// reflection: their plan asserts the concrete slice out of the
// reflect.Value once and loops over it natively (scalar.go). The bytes
// and every decode check are those of the generic plan; a named slice or
// element type ([]SiteID, say) simply takes the generic plan.
//
// Decoding is strict: the encoding is canonical (minimal varints, 0/1
// bools, ascending map keys, no trailing bytes), so any accepted input
// re-encodes to itself, and every declared length is checked against the
// remaining input before anything is allocated.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrCorrupt marks a payload that does not decode as the requested type:
// truncated, non-canonical, a length beyond the remaining input, or
// trailing bytes.
var ErrCorrupt = errors.New("wire: corrupt payload")

// codec is the cached plan of one Go type.
type codec struct {
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value) error
	// size is len(enc(nil, v)), counted without writing.
	size func(v reflect.Value) int
	// min is the smallest number of bytes a value of the type encodes
	// to: the bound a declared element count is checked against.
	min int
	// fixed reports that every value of the type encodes to exactly min
	// bytes (bools, and structs of nothing else), so sizing one is a
	// constant.
	fixed bool
	// last is the length of the type's latest Marshal encoding: the next
	// one's starting capacity.
	last atomic.Int64
}

// plans caches reflect.Type → *codec.
var plans sync.Map

// Register builds and caches the plan of t (pointers are flattened, as
// Marshal flattens them), reporting any unsupported kind inside it.
func Register(t reflect.Type) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	_, err := planFor(t)
	return err
}

func planFor(t reflect.Type) (*codec, error) {
	if c, ok := plans.Load(t); ok {
		return c.(*codec), nil
	}
	return build(t, map[reflect.Type]bool{})
}

// Marshal encodes v, a value or a non-nil pointer to one.
func Marshal(v any) ([]byte, error) {
	rv, c, err := encodable(v)
	if err != nil {
		return nil, err
	}
	return c.marshal(rv), nil
}

// marshal encodes v into a fresh buffer that starts at the size (plus an
// eighth) of the type's previous encoding: successive messages of one
// type are about the same length, so the usual encode is one allocation
// and no regrowth.
func (c *codec) marshal(v reflect.Value) []byte {
	last := c.last.Load()
	b := c.enc(make([]byte, 0, last+last/8), v)
	c.last.Store(int64(len(b)))
	return b
}

// Append appends the encoding of v to b.
func Append(b []byte, v any) ([]byte, error) {
	rv, c, err := encodable(v)
	if err != nil {
		return b, err
	}
	return c.enc(b, rv), nil
}

// encodable flattens v's pointers and returns the value with its plan.
func encodable(v any) (reflect.Value, *codec, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return rv, nil, errors.New("wire: cannot encode nil")
	}
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return rv, nil, fmt.Errorf("wire: cannot encode nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	c, err := planFor(rv.Type())
	return rv, c, err
}

// Unmarshal decodes data into v, a non-nil pointer. The pointed-to value
// is overwritten in full: unlike gob, no field of a reused target
// survives from an earlier decode.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("wire: decode target must be a non-nil pointer, got %T", v)
	}
	c, err := planFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	return c.unmarshal(data, rv.Elem())
}

// unmarshal decodes data into v, an addressable value of the plan's type.
func (c *codec) unmarshal(data []byte, v reflect.Value) error {
	d := decoder{data: data}
	if err := c.dec(&d, v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, v.Type(), err)
	}
	if d.off != len(data) {
		return fmt.Errorf("%w: %s: %d trailing bytes", ErrCorrupt, v.Type(), len(data)-d.off)
	}
	return nil
}

// Plan is the resolved codec of one payload type T. A holder of T values
// sizes, encodes and decodes them through it with no plan lookup and no
// interface box per value. The zero Plan is not usable; PlanOf builds one.
type Plan[T any] struct{ c *codec }

// PlanOf builds (or finds) T's plan, reporting an unsupported kind inside
// it. T must not be a pointer: Marshal flattens a pointer argument, while
// a plan of a pointer type would encode its presence byte.
func PlanOf[T any]() (Plan[T], error) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if t.Kind() == reflect.Pointer {
		return Plan[T]{}, fmt.Errorf("wire: %s: a payload type must not be a pointer", t)
	}
	c, err := planFor(t)
	return Plan[T]{c}, err
}

// Size returns len(Marshal(*v)), counted without encoding; a type of one
// fixed length is sized by a constant.
func (p Plan[T]) Size(v *T) int {
	if p.c.fixed {
		return p.c.min
	}
	return p.c.size(reflect.ValueOf(v).Elem())
}

// Fixed reports the one length every value of T encodes to, if there is
// one.
func (p Plan[T]) Fixed() (int, bool) { return p.c.min, p.c.fixed }

// Marshal encodes *v exactly as Marshal(v) does.
func (p Plan[T]) Marshal(v *T) []byte { return p.c.marshal(reflect.ValueOf(v).Elem()) }

// Unmarshal decodes data into *v exactly as Unmarshal(data, v) does.
func (p Plan[T]) Unmarshal(data []byte, v *T) error {
	return p.c.unmarshal(data, reflect.ValueOf(v).Elem())
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a signed integer onto the unsigned one its varint encodes.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// --- decoder ---

type decoder struct {
	data []byte
	off  int
}

var (
	errShort     = errors.New("unexpected end of input")
	errVarint    = errors.New("malformed or non-minimal varint")
	errLength    = errors.New("declared length exceeds remaining input")
	errBool      = errors.New("bool byte is neither 0 nor 1")
	errKeyOrder  = errors.New("map keys not strictly ascending")
	errIntRange  = errors.New("integer overflows its field")
	errPresence  = errors.New("presence byte is neither 0 nor 1")
	errRecursive = errors.New("recursive types are not supported")
)

// ReadUvarint decodes a canonical (minimal-length) uvarint from the head
// of b, returning the value and the bytes consumed, or n == 0 when b is
// short, overflows 64 bits or pads the value with a zero top group.
func ReadUvarint(b []byte) (x uint64, n int) {
	x, n = binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return x, n
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := ReadUvarint(d.data[d.off:])
	if n == 0 {
		if d.off == len(d.data) {
			return 0, errShort
		}
		return 0, errVarint
	}
	d.off += n
	return x, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off == len(d.data) {
		return 0, errShort
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

// flag reads a 0/1 byte.
func (d *decoder) flag(bad error) (bool, error) {
	b, err := d.byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, bad
	}
	return b == 1, nil
}

// count reads an element count whose elements occupy at least min bytes
// each, rejecting counts the remaining input cannot hold.
func (d *decoder) count(min int) (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(d.data)-d.off)/uint64(min) {
		return 0, errLength
	}
	return int(x), nil
}

// span reads a length-prefixed byte run, aliasing the input.
func (d *decoder) span() ([]byte, error) {
	n, err := d.count(1)
	if err != nil {
		return nil, err
	}
	s := d.data[d.off : d.off+n]
	d.off += n
	return s, nil
}

// --- plan construction ---

// build returns t's codec, constructing and caching it if needed. busy
// holds the types under construction up the recursion, to refuse cycles.
func build(t reflect.Type, busy map[reflect.Type]bool) (*codec, error) {
	if c, ok := plans.Load(t); ok {
		return c.(*codec), nil
	}
	if busy[t] {
		return nil, fmt.Errorf("wire: %s: %w", t, errRecursive)
	}
	busy[t] = true
	defer delete(busy, t)
	c, err := construct(t, busy)
	if err != nil {
		return nil, err
	}
	actual, _ := plans.LoadOrStore(t, c)
	return actual.(*codec), nil
}

func construct(t reflect.Type, busy map[reflect.Type]bool) (*codec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return boolCodec, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return intCodec, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return uintCodec, nil
	case reflect.String:
		return stringCodec, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return bytesCodec, nil
		}
		if c, ok := scalarSlices[t]; ok {
			return c, nil
		}
		el, err := build(t.Elem(), busy)
		if err != nil {
			return nil, err
		}
		if el.min == 0 {
			return nil, fmt.Errorf("wire: %s: slice elements encode to zero bytes", t)
		}
		return sliceCodec(el), nil
	case reflect.Pointer:
		el, err := build(t.Elem(), busy)
		if err != nil {
			return nil, err
		}
		return pointerCodec(t, el), nil
	case reflect.Map:
		key, err := build(t.Key(), busy)
		if err != nil {
			return nil, err
		}
		if key.min == 0 {
			return nil, fmt.Errorf("wire: %s: map keys encode to zero bytes", t)
		}
		val, err := build(t.Elem(), busy)
		if err != nil {
			return nil, err
		}
		return mapCodec(t, key, val), nil
	case reflect.Struct:
		return structCodec(t, busy)
	default:
		return nil, fmt.Errorf("wire: %s: unsupported kind %s", t, t.Kind())
	}
}

var boolCodec = &codec{
	min:   1,
	fixed: true,
	size:  func(reflect.Value) int { return 1 },
	enc: func(b []byte, v reflect.Value) []byte {
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	},
	dec: func(d *decoder, v reflect.Value) error {
		x, err := d.flag(errBool)
		if err != nil {
			return err
		}
		v.SetBool(x)
		return nil
	},
}

var intCodec = &codec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		return binary.AppendUvarint(b, zigzag(v.Int()))
	},
	size: func(v reflect.Value) int { return uvarintLen(zigzag(v.Int())) },
	dec: func(d *decoder, v reflect.Value) error {
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		x := int64(u>>1) ^ -int64(u&1)
		if v.OverflowInt(x) {
			return errIntRange
		}
		v.SetInt(x)
		return nil
	},
}

var uintCodec = &codec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		return binary.AppendUvarint(b, v.Uint())
	},
	size: func(v reflect.Value) int { return uvarintLen(v.Uint()) },
	dec: func(d *decoder, v reflect.Value) error {
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(u) {
			return errIntRange
		}
		v.SetUint(u)
		return nil
	},
}

var stringCodec = &codec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	},
	size: spanSize,
	dec: func(d *decoder, v reflect.Value) error {
		s, err := d.span()
		if err != nil {
			return err
		}
		v.SetString(string(s))
		return nil
	},
}

// spanSize sizes a string or []byte: its length, then its bytes.
func spanSize(v reflect.Value) int {
	n := v.Len()
	return uvarintLen(uint64(n)) + n
}

// bytesCodec copies out of the input, so a decoded value never pins (or
// is changed through) the buffer it was decoded from.
var bytesCodec = &codec{
	min: 1,
	enc: func(b []byte, v reflect.Value) []byte {
		s := v.Bytes()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	},
	size: spanSize,
	dec: func(d *decoder, v reflect.Value) error {
		s, err := d.span()
		if err != nil {
			return err
		}
		if len(s) == 0 {
			v.SetZero()
			return nil
		}
		v.SetBytes(append([]byte(nil), s...))
		return nil
	},
}

func sliceCodec(el *codec) *codec {
	return &codec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = el.enc(b, v.Index(i))
			}
			return b
		},
		size: func(v reflect.Value) int {
			n := v.Len()
			size := uvarintLen(uint64(n))
			for i := 0; i < n; i++ {
				size += el.size(v.Index(i))
			}
			return size
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, err := d.count(el.min)
			if err != nil {
				return err
			}
			// One allocation for the whole backing array; a reused
			// target's old array is dropped, never written through.
			v.SetZero()
			if n == 0 {
				return nil
			}
			v.Grow(n)
			v.SetLen(n)
			for i := 0; i < n; i++ {
				if err := el.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func pointerCodec(t reflect.Type, el *codec) *codec {
	return &codec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			return el.enc(append(b, 1), v.Elem())
		},
		size: func(v reflect.Value) int {
			if v.IsNil() {
				return 1
			}
			return 1 + el.size(v.Elem())
		},
		dec: func(d *decoder, v reflect.Value) error {
			set, err := d.flag(errPresence)
			if err != nil {
				return err
			}
			if !set {
				v.SetZero()
				return nil
			}
			p := reflect.New(t.Elem())
			if err := el.dec(d, p.Elem()); err != nil {
				return err
			}
			v.Set(p)
			return nil
		},
	}
}

// mapCodec orders pairs by encoded key bytes, which is deterministic for
// every supported key kind without a per-kind comparison.
func mapCodec(t reflect.Type, key, val *codec) *codec {
	type pair struct {
		k []byte
		v reflect.Value
	}
	return &codec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			pairs := make([]pair, 0, v.Len())
			for it := v.MapRange(); it.Next(); {
				pairs = append(pairs, pair{key.enc(nil, it.Key()), it.Value()})
			}
			sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].k, pairs[j].k) < 0 })
			b = binary.AppendUvarint(b, uint64(len(pairs))+1)
			for _, p := range pairs {
				b = val.enc(append(b, p.k...), p.v)
			}
			return b
		},
		size: func(v reflect.Value) int {
			if v.IsNil() {
				return 1
			}
			size := uvarintLen(uint64(v.Len()) + 1)
			for it := v.MapRange(); it.Next(); {
				size += key.size(it.Key()) + val.size(it.Value())
			}
			return size
		},
		dec: func(d *decoder, v reflect.Value) error {
			x, err := d.uvarint()
			if err != nil {
				return err
			}
			if x == 0 {
				v.SetZero()
				return nil
			}
			if x-1 > uint64(len(d.data)-d.off)/uint64(key.min+val.min) {
				return errLength
			}
			n := int(x - 1)
			m := reflect.MakeMapWithSize(t, n)
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			var prev []byte
			for i := 0; i < n; i++ {
				start := d.off
				if err := key.dec(d, k); err != nil {
					return err
				}
				raw := d.data[start:d.off]
				if i > 0 && bytes.Compare(prev, raw) >= 0 {
					return errKeyOrder
				}
				prev = raw
				e.SetZero()
				if err := val.dec(d, e); err != nil {
					return err
				}
				m.SetMapIndex(k, e)
			}
			v.Set(m)
			return nil
		},
	}
}

func structCodec(t reflect.Type, busy map[reflect.Type]bool) (*codec, error) {
	type field struct {
		idx int
		c   *codec
	}
	var fields []field
	min, fixed := 0, true
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		c, err := build(f.Type, busy)
		if err != nil {
			return nil, fmt.Errorf("%w (field %s.%s)", err, t, f.Name)
		}
		fields = append(fields, field{i, c})
		min += c.min
		fixed = fixed && c.fixed
	}
	return &codec{
		min:   min,
		fixed: fixed,
		enc: func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.Field(f.idx))
			}
			return b
		},
		size: func(v reflect.Value) int {
			size := 0
			for _, f := range fields {
				size += f.c.size(v.Field(f.idx))
			}
			return size
		},
		dec: func(d *decoder, v reflect.Value) error {
			for _, f := range fields {
				if err := f.c.dec(d, v.Field(f.idx)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}
