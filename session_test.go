package repro

import (
	"context"
	"errors"
	"testing"
)

// TestSessionFacade exercises the public Open surface end to end on the
// paper's running example: one constructor for every engine, live rule
// management, the query surface, watch subscriptions and typed errors.
func TestSessionFacade(t *testing.T) {
	schema := MustSchema("EMP",
		"name", "sex", "grade", "street", "city", "zip", "CC", "AC", "phn", "salary", "hd")
	rows := [][]string{
		{"Mike", "M", "A", "Mayfield", "NYC", "EH4 8LE", "44", "131", "8693784", "65k", "01/10/2005"},
		{"Sam", "M", "A", "Preston", "EDI", "EH2 4HF", "44", "131", "8765432", "65k", "01/05/2009"},
		{"Molina", "F", "B", "Mayfield", "EDI", "EH4 8LE", "44", "131", "3456789", "80k", "01/03/2010"},
		{"Philip", "M", "B", "Mayfield", "EDI", "EH4 8LE", "44", "131", "2909209", "85k", "01/05/2010"},
		{"Adam", "M", "C", "Crichton", "EDI", "EH4 8LE", "44", "131", "7478626", "120k", "01/05/1995"},
	}
	rel := NewRelation(schema)
	for i, r := range rows {
		tup, err := NewTuple(schema, TupleID(i+1), r)
		if err != nil {
			t.Fatal(err)
		}
		rel.MustInsert(tup)
	}
	rules, err := ParseRules(`
phi1: ([CC, zip] -> [street], (44, _, _))
phi2: ([CC, AC] -> [city], (44, 131, EDI))
`)
	if err != nil {
		t.Fatal(err)
	}

	oracle := DetectCentralized(rel, rules)
	hscheme := BySetHorizontal("grade", [][]string{{"A"}, {"B"}, {"C"}})
	vscheme := RoundRobinVertical(schema, 3)

	for _, tc := range []struct {
		name string
		opts []Option
		kind SessionKind
	}{
		{"centralized", nil, KindCentralized},
		{"horizontal", []Option{WithHorizontal(hscheme)}, KindHorizontal},
		{"vertical", []Option{WithVertical(vscheme)}, KindVertical},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := Open(rel, rules, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if sess.Kind() != tc.kind {
				t.Fatalf("Kind = %v, want %v", sess.Kind(), tc.kind)
			}
			if !sess.Violations().Equal(oracle) {
				t.Fatalf("initial V = %v, oracle %v", sess.Violations(), oracle)
			}

			// Read side: phi2 is violated by exactly t1 (city NYC).
			got := sess.Query(ByRule("phi2"))
			if len(got) != 1 || got[0].Tuple != 1 {
				t.Fatalf("Query(ByRule phi2) = %v", got)
			}
			if n := sess.Count()[1].Count; n != 1 {
				t.Fatalf("Count[phi2] = %d", n)
			}

			// Live rule management against a fresh full seed.
			phi3, err := ParseRules(`phi3: ([zip] -> [street], (_, _))`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.AddRules(phi3...); err != nil {
				t.Fatal(err)
			}
			if !sess.Violations().Equal(DetectCentralized(rel, append(rules, phi3...))) {
				t.Fatal("V after AddRules != fresh detect with 3 rules")
			}
			if _, err := sess.AddRules(phi3...); !errors.Is(err, ErrDuplicateRule) {
				t.Fatalf("duplicate AddRules error = %v, want ErrDuplicateRule", err)
			}
			if _, err := sess.RemoveRules("nope"); !errors.Is(err, ErrUnknownRule) {
				t.Fatalf("RemoveRules(nope) error = %v, want ErrUnknownRule", err)
			}
			if _, err := sess.RemoveRules("phi3"); err != nil {
				t.Fatal(err)
			}
			if !sess.Violations().Equal(oracle) {
				t.Fatal("V after RemoveRules != original oracle")
			}

			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.ApplyBatch(context.Background(), nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("post-Close error = %v, want ErrClosed", err)
			}
		})
	}

	// Typed validation errors surface through the façade.
	if _, err := NewTuple(schema, 99, []string{"too", "short"}); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("NewTuple arity error = %v, want ErrArityMismatch", err)
	}
	badRules, err := ParseRules(`bad: ([nosuch] -> [city], (_, _))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(rel, badRules); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("Open with unknown attribute = %v, want ErrUnknownAttribute", err)
	}
}
