package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// scalarCase is one covered slice type: its element plan (what the
// generic slice plan would loop over) and a random-value generator.
type scalarCase struct {
	typ  reflect.Type
	elem *codec
	gen  func(rng *rand.Rand, n int) reflect.Value
}

func scalarCases() []scalarCase {
	edgeInts := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 1 << 31, -(1 << 31)}
	fill := func(s any) reflect.Value { return reflect.ValueOf(s) }
	return []scalarCase{
		{reflect.TypeOf([]int64(nil)), intCodec, func(rng *rand.Rand, n int) reflect.Value {
			s := make([]int64, n)
			for i := range s {
				s[i] = edgeInts[rng.Intn(len(edgeInts))] ^ rng.Int63n(1<<uint(rng.Intn(40)+1))
			}
			return fill(s)
		}},
		{reflect.TypeOf([]int(nil)), intCodec, func(rng *rand.Rand, n int) reflect.Value {
			s := make([]int, n)
			for i := range s {
				s[i] = int(edgeInts[rng.Intn(len(edgeInts))]) ^ rng.Intn(1<<20)
			}
			return fill(s)
		}},
		{reflect.TypeOf([]uint64(nil)), uintCodec, func(rng *rand.Rand, n int) reflect.Value {
			s := make([]uint64, n)
			for i := range s {
				s[i] = rng.Uint64() >> uint(rng.Intn(64))
			}
			return fill(s)
		}},
		{reflect.TypeOf([]bool(nil)), boolCodec, func(rng *rand.Rand, n int) reflect.Value {
			s := make([]bool, n)
			for i := range s {
				s[i] = rng.Intn(2) == 1
			}
			return fill(s)
		}},
		{reflect.TypeOf([]string(nil)), stringCodec, func(rng *rand.Rand, n int) reflect.Value {
			s := make([]string, n)
			for i := range s {
				s[i] = string(make([]byte, rng.Intn(5))) + "é"[:rng.Intn(3)]
			}
			return fill(s)
		}},
	}
}

// TestScalarPlansMatchGenericPlan: for every covered slice type the
// native plan and the generic slice plan over the same element plan
// produce the same bytes, decode them to the same value (nil for an empty
// slice), and agree on which damaged inputs they refuse.
func TestScalarPlansMatchGenericPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range scalarCases() {
		fast, ok := scalarSlices[c.typ]
		if !ok {
			t.Fatalf("%s has no native plan", c.typ)
		}
		if got, err := planFor(c.typ); err != nil || got != fast {
			t.Fatalf("%s: planFor does not pick the native plan (err %v)", c.typ, err)
		}
		generic := sliceCodec(c.elem)
		decode := func(plan *codec, data []byte) (reflect.Value, error) {
			// A stale target: both plans must overwrite it in full.
			out := reflect.New(c.typ).Elem()
			out.Set(c.gen(rng, 3))
			d := decoder{data: data}
			err := plan.dec(&d, out)
			if err == nil && d.off != len(data) {
				err = errLength
			}
			return out, err
		}
		for _, n := range []int{0, 1, 2, 63, 64, 65, 300} {
			v := c.gen(rng, n)
			enc := fast.enc(nil, v)
			if want := generic.enc(nil, v); !bytes.Equal(enc, want) {
				t.Fatalf("%s, %d elements: native plan wrote %x, generic plan %x", c.typ, n, enc, want)
			}
			if fs, gs := fast.size(v), generic.size(v); fs != len(enc) || gs != len(enc) {
				t.Fatalf("%s, %d elements: %d bytes written, sized %d by the native plan and %d by the generic one", c.typ, n, len(enc), fs, gs)
			}
			got, err := decode(fast, enc)
			if err != nil {
				t.Fatalf("%s, %d elements: native decode: %v", c.typ, n, err)
			}
			want, _ := decode(generic, enc)
			if !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Fatalf("%s, %d elements: native plan decoded %v, generic plan %v", c.typ, n, got, want)
			}
			if n == 0 && !got.IsNil() {
				t.Errorf("%s: an empty slice decoded to a non-nil one", c.typ)
			}
			// Damage: every truncation, and every single-byte rewrite of a
			// short encoding.
			for cut := 0; cut < len(enc) && cut < 40; cut++ {
				_, ferr := decode(fast, enc[:cut])
				_, gerr := decode(generic, enc[:cut])
				if (ferr == nil) != (gerr == nil) {
					t.Fatalf("%s: truncated to %d of %x: native %v, generic %v", c.typ, cut, enc, ferr, gerr)
				}
			}
			if n <= 2 {
				for at := range enc {
					for _, b := range []byte{0x00, 0x02, 0x80, 0xFF} {
						bad := append([]byte(nil), enc...)
						bad[at] = b
						fv, ferr := decode(fast, bad)
						gv, gerr := decode(generic, bad)
						if (ferr == nil) != (gerr == nil) || ferr == nil && !reflect.DeepEqual(fv.Interface(), gv.Interface()) {
							t.Fatalf("%s: input %x: native (%v, %v), generic (%v, %v)", c.typ, bad, fv, ferr, gv, gerr)
						}
					}
				}
			}
		}
	}
}

// TestNamedSlicesTakeTheGenericPlan: the native plans cover exactly the
// unnamed slice types; a named slice or element type keeps the generic
// plan and still round-trips.
func TestNamedSlicesTakeTheGenericPlan(t *testing.T) {
	type id int64
	type ids []int64
	type msg struct {
		A []id
		B ids
		C []int64
	}
	for _, typ := range []reflect.Type{reflect.TypeOf([]id(nil)), reflect.TypeOf(ids(nil))} {
		if _, native := scalarSlices[typ]; native {
			t.Errorf("%s has a native plan", typ)
		}
	}
	in := msg{A: []id{1, -2}, B: ids{3}, C: []int64{4, 5}}
	enc, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := Unmarshal(enc, &out); err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v, err %v", out, err)
	}
}

// TestMarshalStartsFromLastSize: the second Marshal of a type allocates a
// buffer that already fits, and a value that outgrows the hint still
// encodes in full.
func TestMarshalStartsFromLastSize(t *testing.T) {
	type cols struct{ IDs []int64 }
	big := cols{IDs: make([]int64, 500)}
	first, err := Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := Marshal(big)
	if !bytes.Equal(first, second) {
		t.Fatal("same value, different bytes")
	}
	if cap(second) < len(second) || cap(second) > len(second)+len(second)/8 {
		t.Errorf("second Marshal: %d bytes in a buffer of %d, want the previous length plus at most an eighth", len(second), cap(second))
	}
	small, _ := Marshal(cols{IDs: []int64{1}})
	grown, _ := Marshal(big) // hint is now the small encoding's
	if len(small) != 2 || !bytes.Equal(grown, first) {
		t.Errorf("after a small value: small %x, large differs: %v", small, !bytes.Equal(grown, first))
	}
}
