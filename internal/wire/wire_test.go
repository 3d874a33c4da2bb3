package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

type inner struct {
	N    int16
	Tags []string
}

type outer struct {
	Flag   bool
	I      int
	U      uint32
	S      string
	Raw    []byte
	Items  []inner
	Ptr    *inner
	ByName map[string]inner
	ByID   map[int8]bool
	hidden int
	Nested [][]int64
}

func TestRoundTrip(t *testing.T) {
	in := outer{
		Flag: true, I: -123456789, U: 1 << 31, S: "héllo", Raw: []byte{0, 255},
		Items:  []inner{{N: -7, Tags: []string{"a", ""}}, {}},
		Ptr:    &inner{N: 9},
		ByName: map[string]inner{"b": {N: 2}, "a": {N: 1}, "": {}},
		ByID:   map[int8]bool{-1: true, 5: false},
		hidden: 42,
		Nested: [][]int64{{1, 2}, nil, {3}},
	}
	enc, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	viaPtr, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, viaPtr) {
		t.Fatal("a pointer to a value encodes differently from the value")
	}
	var out outer
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	want := in
	want.hidden = 0 // unexported fields do not travel
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", out, want)
	}
	// Map iteration order must not reach the bytes.
	for i := 0; i < 20; i++ {
		again, _ := Marshal(in)
		if !bytes.Equal(enc, again) {
			t.Fatal("encoding is not deterministic")
		}
	}
}

// TestPlanMatchesMarshal: a type's resolved Plan sizes a value at the
// length Marshal gives it — nil, empty and populated shapes of every
// kind, wide varints included — and encodes and decodes exactly as
// Marshal and Unmarshal do. A pointer type has no Plan.
func TestPlanMatchesMarshal(t *testing.T) {
	p, err := PlanOf[outer]()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []outer{
		{},
		{Raw: []byte{}, Items: []inner{}, ByName: map[string]inner{}, Nested: [][]int64{}},
		{
			Flag: true, I: -1 << 62, U: 1<<32 - 1, S: strings.Repeat("é", 100), Raw: make([]byte, 200),
			Items:  []inner{{N: -1 << 15, Tags: []string{"a", "", strings.Repeat("x", 128)}}, {}},
			Ptr:    &inner{Tags: []string{}},
			ByName: map[string]inner{"b": {N: 2}, "a": {N: 1}, "": {}},
			ByID:   map[int8]bool{-128: true, 127: false},
			Nested: [][]int64{{1 << 62, -1}, nil, {}},
		},
		// Counts on either side of a varint's one-byte limit.
		{Items: make([]inner, 127), Nested: make([][]int64, 128)},
	} {
		enc, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Size(&v); got != len(enc) {
			t.Errorf("Size = %d, Marshal wrote %d bytes of %+v", got, len(enc), v)
		}
		if got := p.Marshal(&v); !bytes.Equal(got, enc) {
			t.Errorf("Plan.Marshal wrote %x, Marshal %x", got, enc)
		}
		var out, want outer
		if err := p.Unmarshal(enc, &out); err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(enc, &want); err != nil || !reflect.DeepEqual(out, want) {
			t.Errorf("Plan.Unmarshal decoded %+v, Unmarshal %+v (%v)", out, want, err)
		}
	}
	if err := p.Unmarshal([]byte{2}, new(outer)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Plan.Unmarshal of a bad payload: %v", err)
	}
	if _, err := PlanOf[*outer](); err == nil {
		t.Error("PlanOf a pointer type succeeded")
	}

	// A type whose every value encodes to one length is sized by a
	// constant: bools and structs of nothing else. Anything holding a
	// varint, a length prefix or a presence byte is sized by its value.
	type flags struct{ A, B bool }
	type nested struct {
		F flags
		E struct{}
		C bool
	}
	fixedLength(t, true, struct{}{})
	fixedLength(t, true, false, true)
	fixedLength(t, true, nested{}, nested{F: flags{B: true}, C: true})
	fixedLength(t, false, struct {
		F flags
		N int
	}{}, struct {
		F flags
		N int
	}{N: 1 << 20})
	fixedLength(t, false, struct {
		B bool
		S string
	}{}, struct {
		B bool
		S string
	}{S: "abc"})
	fixedLength(t, false, struct {
		B bool
		X []bool
	}{}, struct {
		B bool
		X []bool
	}{X: []bool{true, false}})
}

// fixedLength checks that T's plan is fixed-length exactly when fixed
// says so, and that it sizes every one of vals at its Marshal length.
func fixedLength[T any](t *testing.T, fixed bool, vals ...T) {
	t.Helper()
	p, err := PlanOf[T]()
	if err != nil {
		t.Fatal(err)
	}
	n, ok := p.Fixed()
	if ok != fixed {
		t.Errorf("%T: fixed-length plan %v, want %v", vals[0], ok, fixed)
	}
	for _, v := range vals {
		enc, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if ok && n != len(enc) {
			t.Errorf("%T: fixed length %d, Marshal wrote %d bytes of %+v", v, n, len(enc), v)
		}
		if got := p.Size(&v); got != len(enc) {
			t.Errorf("%T: Size(%+v) = %d, Marshal wrote %d bytes", v, v, got, len(enc))
		}
	}
}

// A reused decode target is overwritten in full, and nothing it held is
// written through or left behind.
func TestUnmarshalOverwritesTarget(t *testing.T) {
	oldItems := []inner{{N: 1, Tags: []string{"keep"}}, {N: 2}}
	out := outer{Flag: true, S: "stale", Items: oldItems, Ptr: &inner{N: 5}, ByName: map[string]inner{"x": {}}}
	enc, err := Marshal(outer{Items: []inner{{N: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, outer{Items: []inner{{N: 9}}}) {
		t.Fatalf("stale fields survived: %+v", out)
	}
	if oldItems[0].N != 1 || oldItems[0].Tags[0] != "keep" {
		t.Fatalf("decode wrote through the target's old backing array: %+v", oldItems)
	}
}

func TestDecodedBytesDoNotAliasInput(t *testing.T) {
	enc, err := Marshal(outer{Raw: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xEE
	}
	if string(out.Raw) != "abc" {
		t.Fatalf("Raw = %q after the input buffer was reused", out.Raw)
	}
}

func TestRegisterRejectsUnsupportedKinds(t *testing.T) {
	type recursive struct{ Next *recursive }
	for _, v := range []any{
		struct{ F float64 }{},
		struct{ A [4]byte }{},
		struct{ I any }{},
		struct{ C chan int }{},
		struct{ Fn func() }{},
		struct{ E []struct{} }{},
		struct{ M map[struct{}]int }{},
		struct {
			Deep []map[string]*struct{ Z complex64 }
		}{},
		recursive{},
	} {
		err := Register(reflect.TypeOf(v))
		if err == nil {
			t.Errorf("Register(%T) succeeded", v)
			continue
		}
		if _, merr := Marshal(v); merr == nil {
			t.Errorf("Marshal(%T) succeeded after Register failed with %v", v, err)
		}
	}
	if err := Register(reflect.TypeOf(&outer{})); err != nil {
		t.Errorf("Register(*outer): %v", err)
	}
	// Unexported fields are skipped, whatever their kind.
	if err := Register(reflect.TypeOf(struct {
		A int
		f float64
	}{})); err != nil {
		t.Errorf("unexported float field rejected: %v", err)
	}
}

func TestUnmarshalRejectsNonCanonicalInput(t *testing.T) {
	type small struct {
		B bool
		N int8
		P *int
		M map[string]int
		S []int
	}
	ok, err := Marshal(small{B: true, N: -3, M: map[string]int{"a": 1, "b": 2}, S: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	var probe small
	if err := Unmarshal(ok, &probe); err != nil {
		t.Fatalf("canonical input rejected: %v", err)
	}
	cases := map[string][]byte{
		"truncated":              ok[:len(ok)-1],
		"trailing byte":          append(append([]byte(nil), ok...), 0),
		"bool byte 2":            {2, 0, 0, 0, 0},
		"padded varint":          {0, 0x80, 0x00, 0, 0, 0},
		"int8 overflow":          {0, 0xFF, 0x7F, 0, 0, 0},
		"presence byte 2":        {0, 0, 2, 0, 0},
		"map keys descending":    {0, 0, 0, 3, 1, 'b', 0, 1, 'a', 0, 0},
		"map keys duplicated":    {0, 0, 0, 3, 1, 'a', 0, 1, 'a', 0, 0},
		"map count over input":   {0, 0, 0, 0x7F, 0},
		"slice count over input": {0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, in := range cases {
		var v small
		if err := Unmarshal(in, &v); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %v, want ErrCorrupt", name, err)
		}
	}
	if err := Unmarshal(ok, small{}); err == nil || strings.Contains(err.Error(), "corrupt") {
		t.Errorf("non-pointer target: %v", err)
	}
}
