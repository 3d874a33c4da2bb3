// Package wiretest holds the checks the protocol packages run over their
// own (unexported) message types: the differential against encoding/gob
// — the codec internal/wire replaced on the call path, whose decoding
// conventions the handlers were written against — the differential
// against the per-element encoding every native slice plan must
// reproduce, and the decode-side fuzz properties.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wire"
)

// PlanParity checks that v's encoding is, byte for byte, the one the
// element-by-element rules of internal/wire's package comment give —
// restated here as a plain reflective walk that knows nothing of the
// codec's plans. A slice type with a native loop in the codec ([]int64, []uint64,
// []int, []bool, []string) and one without ([]network.SiteID) therefore
// land on the same bytes for the same elements.
func PlanParity(t *testing.T, v any) {
	t.Helper()
	typ := reflect.TypeOf(v)
	enc, err := wire.Marshal(v)
	if err != nil {
		t.Fatalf("%s: Marshal: %v", typ, err)
	}
	if want := appendGeneric(nil, reflect.ValueOf(v)); !bytes.Equal(enc, want) {
		t.Errorf("%s: encoding differs from the element-by-element rules:\n codec %x\n rules %x", typ, enc, want)
	}
}

// appendGeneric encodes v one element at a time by the rules of
// internal/wire: the reference the codec's plans are held to.
func appendGeneric(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		return binary.AppendUvarint(b, uint64(x<<1)^uint64(x>>63))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendGeneric(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendGeneric(append(b, 1), v.Elem())
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0)
		}
		pairs := make([][2][]byte, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			pairs = append(pairs, [2][]byte{appendGeneric(nil, it.Key()), appendGeneric(nil, it.Value())})
		}
		sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i][0], pairs[j][0]) < 0 })
		b = binary.AppendUvarint(b, uint64(len(pairs))+1)
		for _, p := range pairs {
			b = append(append(b, p[0]...), p[1]...)
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				b = appendGeneric(b, v.Field(i))
			}
		}
		return b
	}
	panic("wiretest: kind the codec does not carry: " + v.Kind().String())
}

// GobParity checks that v survives the call-path codec exactly as it
// survived gob: both round trips, into fresh zero targets, must be
// reflect.DeepEqual — nil-versus-empty slices and maps, nil and non-nil
// pointers, and unexported fields included. It also checks the encoding
// is deterministic: the decoded value re-encodes to the same bytes.
func GobParity(t *testing.T, v any) {
	t.Helper()
	typ := reflect.TypeOf(v)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("%s: gob encode: %v", typ, err)
	}
	viaGob := reflect.New(typ)
	if err := gob.NewDecoder(&buf).Decode(viaGob.Interface()); err != nil {
		t.Fatalf("%s: gob decode: %v", typ, err)
	}

	enc, err := wire.Marshal(v)
	if err != nil {
		t.Fatalf("%s: Marshal: %v", typ, err)
	}
	viaWire := reflect.New(typ)
	if err := wire.Unmarshal(enc, viaWire.Interface()); err != nil {
		t.Fatalf("%s: Unmarshal: %v", typ, err)
	}
	if !reflect.DeepEqual(viaGob.Elem().Interface(), viaWire.Elem().Interface()) {
		t.Errorf("%s: codec round trip differs from gob round trip:\n in   %#v\n gob  %#v\n wire %#v",
			typ, v, viaGob.Elem().Interface(), viaWire.Elem().Interface())
	}
	again, err := wire.Marshal(viaWire.Interface())
	if err != nil {
		t.Fatalf("%s: re-Marshal: %v", typ, err)
	}
	if !bytes.Equal(enc, again) {
		t.Errorf("%s: decoded value re-encodes differently:\n first  %x\n second %x", typ, enc, again)
	}
}

// FuzzDecode is the body of a payload fuzz target for message type T:
// arbitrary bytes through wire.Unmarshal must never panic, must never
// materialize more elements than the input has bytes (every declared
// length is checked against the remaining input before allocation), and
// whatever is accepted must re-encode to exactly the input.
func FuzzDecode[T any](t *testing.T, data []byte) {
	var v T
	if err := wire.Unmarshal(data, &v); err != nil {
		return
	}
	if n := elements(reflect.ValueOf(v)); n > len(data) {
		t.Fatalf("decoded %d elements from %d bytes of input", n, len(data))
	}
	reenc, err := wire.Marshal(v)
	if err != nil {
		t.Fatalf("re-encode of accepted payload: %v", err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatalf("re-encoded payload differs from input:\n in  %x\n out %x", data, reenc)
	}
}

// elements counts every slice element, map entry and string byte
// reachable from v.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Slice:
		n := v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	case reflect.Map:
		n := v.Len()
		for it := v.MapRange(); it.Next(); {
			n += elements(it.Key()) + elements(it.Value())
		}
		return n
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
		return n
	default:
		return 0
	}
}
