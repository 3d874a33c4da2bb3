package wire

import (
	"encoding/binary"
	"reflect"
)

// The scalar-slice plans: one per unnamed slice type whose elements are a
// single varint, byte or string. Each takes the concrete slice out of the
// reflect.Value once and loops over it natively; the generic slice plan
// pays a reflect.Value and an indirect call per element for the same
// bytes.

// scalarSlices maps each covered slice type to its native plan; any other
// slice type, named ones included, takes the generic plan.
var scalarSlices = map[reflect.Type]*codec{
	reflect.TypeOf([]int64(nil)):  intsCodec[int64](),
	reflect.TypeOf([]int(nil)):    intsCodec[int](),
	reflect.TypeOf([]uint64(nil)): scalarCodec(appendUint64s, readUint64s, sizeUint64s),
	reflect.TypeOf([]bool(nil)):   scalarCodec(appendBools, readBools, func(s []bool) int { return len(s) }),
	reflect.TypeOf([]string(nil)): scalarCodec(appendStrings, readStrings, sizeStrings),
}

// concrete returns the []E that v, a reflect.Value of exactly that type,
// holds. An addressable value goes through its pointer, because Interface
// on it would copy the slice header to the heap.
func concrete[E any](v reflect.Value) []E {
	if v.CanAddr() {
		return *v.Addr().Interface().(*[]E)
	}
	return v.Interface().([]E)
}

// scalarCodec builds the plan of []E from its three loops. read fills a
// slice already sized to the declared count, which the decoder has checked
// against the remaining input (every element is at least one byte): one
// allocation for the backing array, and none for an empty slice, which
// decodes to nil as in the generic plan. sizeAll counts the bytes
// appendAll writes.
func scalarCodec[E any](appendAll func([]byte, []E) []byte, read func(*decoder, []E) error, sizeAll func([]E) int) *codec {
	return &codec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			s := concrete[E](v)
			return appendAll(binary.AppendUvarint(b, uint64(len(s))), s)
		},
		size: func(v reflect.Value) int {
			s := concrete[E](v)
			return uvarintLen(uint64(len(s))) + sizeAll(s)
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, err := d.count(1)
			if err != nil {
				return err
			}
			var s []E
			if n > 0 {
				s = make([]E, n)
			}
			// Decode targets are reached through a pointer, so they are
			// always addressable.
			*v.Addr().Interface().(*[]E) = s
			return read(d, s)
		},
	}
}

func intsCodec[E int | int64]() *codec {
	return scalarCodec(
		func(b []byte, s []E) []byte {
			for _, x := range s {
				b = binary.AppendUvarint(b, zigzag(int64(x)))
			}
			return b
		},
		func(d *decoder, s []E) error {
			for i := range s {
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				x := int64(u>>1) ^ -int64(u&1)
				if int64(E(x)) != x {
					return errIntRange
				}
				s[i] = E(x)
			}
			return nil
		},
		func(s []E) int {
			n := 0
			for _, x := range s {
				n += uvarintLen(zigzag(int64(x)))
			}
			return n
		})
}

func appendUint64s(b []byte, s []uint64) []byte {
	for _, x := range s {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

func sizeUint64s(s []uint64) int {
	n := 0
	for _, x := range s {
		n += uvarintLen(x)
	}
	return n
}

func readUint64s(d *decoder, s []uint64) error {
	for i := range s {
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		s[i] = u
	}
	return nil
}

func appendBools(b []byte, s []bool) []byte {
	for _, x := range s {
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func readBools(d *decoder, s []bool) error {
	for i := range s {
		x, err := d.flag(errBool)
		if err != nil {
			return err
		}
		s[i] = x
	}
	return nil
}

func appendStrings(b []byte, s []string) []byte {
	for _, x := range s {
		b = append(binary.AppendUvarint(b, uint64(len(x))), x...)
	}
	return b
}

func sizeStrings(s []string) int {
	n := 0
	for _, x := range s {
		n += uvarintLen(uint64(len(x))) + len(x)
	}
	return n
}

func readStrings(d *decoder, s []string) error {
	for i := range s {
		x, err := d.span()
		if err != nil {
			return err
		}
		s[i] = string(x)
	}
	return nil
}
