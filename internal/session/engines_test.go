package session

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// The engine suite: both distributed engines, opened through Session,
// hold V(Σ, D) equal to a fresh centralized detection right after
// seeding, after every batch and after every rule change.

// engineFixture generates a small TPCH relation, rule set and update
// batch, deterministic in seed.
func engineFixture(seed int64) (*relation.Relation, []cfd.CFD, relation.UpdateList) {
	gen := workload.NewSized(workload.TPCH, seed, 2000)
	rules := gen.Rules(12)
	rel := gen.Relation(150)
	updates := gen.Updates(rel, 40, 0.7)
	return rel, rules, updates
}

// styleOption selects a distributed engine over sites sites of schema.
func styleOption(style string, schema *relation.Schema, sites int) Option {
	if style == "vertical" {
		return WithVertical(partition.RoundRobinVertical(schema, sites))
	}
	return WithHorizontal(partition.HashHorizontal("c_name", sites))
}

// mustOpen opens a session that the test's cleanup closes.
func mustOpen(t *testing.T, rel *relation.Relation, rules []cfd.CFD, opts ...Option) *Session {
	t.Helper()
	s, err := Open(rel, rules, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// build opens a three-site session of the given style over rel (vertical
// with the §5 optimizer; "centralized" opens an undistributed one), plus
// any extra options.
func build(t *testing.T, style string, rel *relation.Relation, rules []cfd.CFD, extra ...Option) *Session {
	t.Helper()
	if style == "centralized" {
		return mustOpen(t, rel, rules, extra...)
	}
	opts := []Option{styleOption(style, rel.Schema, 3)}
	if style == "vertical" {
		opts = append(opts, WithOptimizer())
	}
	return mustOpen(t, rel, rules, append(opts, extra...)...)
}

var styles = []string{"vertical", "horizontal"}

// TestSeededStateInvariants: right after Open a distributed session
// holds V(Σ, D) equal to a centralized detection, its meters are zero
// (seeding is never charged), and its accessors are wired up.
func TestSeededStateInvariants(t *testing.T) {
	for _, style := range styles {
		t.Run(style, func(t *testing.T) {
			rel, rules, _ := engineFixture(1)
			d := build(t, style, rel.Clone(), rules)

			want := centralized.Detect(rel, rules)
			if !d.Violations().Equal(want) {
				t.Errorf("seeded V ≠ centralized oracle")
			}
			st := d.Stats()
			if st.Bytes != 0 || st.Messages != 0 || st.Eqids != 0 {
				t.Errorf("seeding was metered: %+v", st)
			}
			if d.Cluster() == nil {
				t.Error("nil cluster")
			}
			if (d.Plan() != nil) != (style == "vertical") {
				t.Errorf("Plan() = %v on a %s session", d.Plan(), style)
			}
			got := d.Rules()
			if len(got) != len(rules) {
				t.Fatalf("Rules() returned %d rules, want %d", len(got), len(rules))
			}
			for i := range got {
				if got[i].ID != rules[i].ID {
					t.Errorf("rule %d: %q ≠ %q", i, got[i].ID, rules[i].ID)
				}
			}
		})
	}
}

// TestApplyBatchMatchesOracle: the distributed engines maintain V
// incrementally to exactly the oracle's fresh result, and their returned
// ∆V is the change from the old state to the new one.
func TestApplyBatchMatchesOracle(t *testing.T) {
	for _, style := range styles {
		t.Run(style, func(t *testing.T) {
			rel, rules, updates := engineFixture(2)
			d := build(t, style, rel.Clone(), rules)
			before := d.Violations().Clone()

			delta, err := d.ApplyBatch(context.Background(), updates)
			if err != nil {
				t.Fatal(err)
			}

			updated := rel.Clone()
			if err := updates.Normalize().Apply(updated); err != nil {
				t.Fatal(err)
			}
			want := centralized.Detect(updated, rules)
			if !d.Violations().Equal(want) {
				t.Errorf("maintained V ≠ oracle after batch")
			}
			if got, w := delta.String(), cfd.DeltaBetween(before, want).String(); got != w {
				t.Errorf("∆V = %s, want the change V₀ → oracle %s", got, w)
			}
		})
	}
}

// TestRefusedRoundLeavesV: a batch that fails halfway — a fresh
// insertion, then the deletion of a tuple D does not hold — leaves V as
// the last published epoch holds it, in every engine: the engines mark
// V as they go, and the session rolls back what a refused round marked.
// No epoch is published for it.
func TestRefusedRoundLeavesV(t *testing.T) {
	for _, style := range append([]string{"centralized"}, styles...) {
		t.Run(style, func(t *testing.T) {
			marked := 0
			for seed := int64(1); seed <= 12; seed++ {
				rel, rules, _ := engineFixture(seed)
				d := build(t, style, rel.Clone(), rules)
				before, epoch := d.Violations().Clone(), d.Snapshot().Epoch()
				fresh := rel.Tuples()[0].Clone()
				fresh.ID = 100000
				missing := fresh.Clone()
				missing.ID = 999999
				if _, err := d.ApplyBatch(context.Background(), relation.UpdateList{
					{Kind: relation.Insert, Tuple: fresh},
					{Kind: relation.Delete, Tuple: missing},
				}); err == nil {
					t.Fatalf("seed %d: deleting a tuple D does not hold succeeded", seed)
				}
				if !d.Violations().Equal(before) {
					t.Fatalf("seed %d: the refused round changed V by %v", seed, cfd.DeltaBetween(before, d.Violations()))
				}
				if got := d.Snapshot().Epoch(); got != epoch {
					t.Fatalf("seed %d: the refused round moved the epoch %d → %d", seed, epoch, got)
				}
				withFresh := rel.Clone()
				withFresh.MustInsert(fresh)
				if centralized.Detect(withFresh, rules).Has(fresh.ID) {
					marked++
				}
			}
			if marked == 0 {
				t.Fatal("fixture broken: no refused round's insertion would have marked V")
			}
		})
	}
}

// TestBatchDetectMatchesOracle: the batch baseline recomputes the same
// violation set from the fragments, on a freshly seeded session and on
// one an ApplyBatch has advanced to D ⊕ ∆D — the session the harness
// runs it on — for every engine.
func TestBatchDetectMatchesOracle(t *testing.T) {
	for _, style := range append([]string{"centralized"}, styles...) {
		for _, applied := range []bool{false, true} {
			rel, rules, updates := engineFixture(3)
			d := build(t, style, rel.Clone(), rules)
			want := rel
			if applied {
				if _, err := d.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatal(err)
				}
				want = rel.Clone()
				if err := updates.Normalize().Apply(want); err != nil {
					t.Fatal(err)
				}
			}
			got, err := d.BatchDetect()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(centralized.Detect(want, rules)) {
				t.Errorf("%s applied=%v: batch V ≠ oracle", style, applied)
			}
		}
	}
}

// TestClusterKnobs: the cluster's fan-out knob does not change what is
// computed or shipped.
func TestClusterKnobs(t *testing.T) {
	for _, style := range styles {
		rel, rules, updates := engineFixture(5)

		ref := build(t, style, rel.Clone(), rules)
		refDelta, err := ref.ApplyBatch(context.Background(), updates)
		if err != nil {
			t.Fatal(err)
		}

		tuned := build(t, style, rel.Clone(), rules, WithMaxFanout(1))
		delta, err := tuned.ApplyBatch(context.Background(), updates)
		if err != nil {
			t.Fatal(err)
		}
		if !tuned.Violations().Equal(ref.Violations()) {
			t.Errorf("%s: serial fan-out changed the violation set", style)
		}
		if delta.Size() != refDelta.Size() {
			t.Errorf("%s: serial fan-out changed |∆V|: %d vs %d", style, delta.Size(), refDelta.Size())
		}
		a, b := tuned.Stats(), ref.Stats()
		if a.Bytes != b.Bytes || a.Messages != b.Messages || a.Eqids != b.Eqids {
			t.Errorf("%s: serial fan-out changed the meters: %d/%d/%d vs %d/%d/%d",
				style, a.Bytes, a.Messages, a.Eqids, b.Bytes, b.Messages, b.Eqids)
		}
	}
}

// TestEngineRuleManagementOracle interleaves AddRules/RemoveRules with
// update batches on both distributed engines and, after every step,
// asserts the maintained violation set bit-identical to a fresh
// centralized detection over mirrored data with the rule set then in
// force (TestRuleManagementDifferentialOracle runs the 20-seed version).
func TestEngineRuleManagementOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, style := range []string{"horizontal", "vertical"} {
			t.Run(style, func(t *testing.T) {
				gen := workload.NewSized(workload.TPCH, seed, 800)
				allRules := gen.Rules(6)
				rel := gen.Relation(300)
				mirror := rel.Clone()

				sys := mustOpen(t, rel, allRules[:3], styleOption(style, rel.Schema, 4))
				active := append([]cfd.CFD(nil), allRules[:3]...)

				check := func(stage string) {
					t.Helper()
					oracle := centralized.Detect(mirror, active)
					if !sys.Violations().Equal(oracle) {
						t.Fatalf("seed %d %s: %s: V diverged\n got: %v\nwant: %v",
							seed, style, stage, sys.Violations(), oracle)
					}
				}
				applyBatch := func(n int) {
					t.Helper()
					updates := gen.Updates(mirror, n, 0.7)
					if _, err := sys.ApplyBatch(context.Background(), updates); err != nil {
						t.Fatalf("seed %d %s: ApplyBatch: %v", seed, style, err)
					}
					if err := updates.Normalize().Apply(mirror); err != nil {
						t.Fatal(err)
					}
				}

				check("initial")
				applyBatch(40)
				check("after batch 1")

				before := sys.Stats()
				addDelta, err := sys.AddRules(allRules[3:5]...)
				if err != nil {
					t.Fatalf("seed %d %s: AddRules: %v", seed, style, err)
				}
				active = append(active, allRules[3:5]...)
				check("after AddRules")
				if w := sys.Stats().Sub(before); w.Messages == 0 {
					t.Errorf("seed %d %s: AddRules seed-delta round shipped no messages", seed, style)
				}
				// The seed delta must be exactly the new rules' marks.
				for _, id := range addDelta.AddedTuples() {
					for _, r := range addDelta.AddedRules(id) {
						if r != allRules[3].ID && r != allRules[4].ID {
							t.Fatalf("seed %d %s: AddRules delta touched old rule %s", seed, style, r)
						}
					}
				}

				applyBatch(40)
				check("after batch 2")

				rmDelta, err := sys.RemoveRules(active[1].ID)
				if err != nil {
					t.Fatalf("seed %d %s: RemoveRules: %v", seed, style, err)
				}
				if rmDelta.AddedMarks() != 0 {
					t.Fatalf("seed %d %s: RemoveRules added marks", seed, style)
				}
				active = append(active[:1:1], active[2:]...)
				check("after RemoveRules")

				applyBatch(40)
				check("after batch 3")

				// Add one more rule and finish with one more batch.
				if _, err := sys.AddRules(allRules[5]); err != nil {
					t.Fatalf("seed %d %s: AddRules #2: %v", seed, style, err)
				}
				active = append(active, allRules[5])
				check("after AddRules #2")
				applyBatch(40)
				check("final")
			})
		}
	}
}

// TestRuleManagementMatchesFreshSeed pins the acceptance criterion
// directly: after AddRules/RemoveRules, V is bit-identical to a system
// freshly seeded with the final rule set.
func TestRuleManagementMatchesFreshSeed(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 7, 600)
	rules := gen.Rules(5)
	rel := gen.Relation(250)
	final := []cfd.CFD{rules[0], rules[3], rules[4]}

	for _, style := range []string{"horizontal", "vertical"} {
		sys := mustOpen(t, rel, rules[:2], styleOption(style, rel.Schema, 3))
		fresh := mustOpen(t, rel, final, styleOption(style, rel.Schema, 3))
		if _, err := sys.AddRules(rules[3:5]...); err != nil {
			t.Fatalf("%s: AddRules: %v", style, err)
		}
		if _, err := sys.RemoveRules(rules[1].ID); err != nil {
			t.Fatalf("%s: RemoveRules: %v", style, err)
		}
		if !sys.Violations().Equal(fresh.Violations()) {
			t.Fatalf("%s: live-managed V != fresh full seed\n got: %v\nwant: %v",
				style, sys.Violations(), fresh.Violations())
		}
	}
}

// TestVerticalSeparatorInAttributeNames: attribute names are opaque to
// the HEV planners. With an attribute named "A\x1fB" beside A and B, the
// rule over {A\x1fB, C} and the rule over {A, B, C} need two HEVs; sharing
// one would group r2 by the wrong columns — missing its real violation
// (t1, t2) and flagging r1's group (t1, t3) instead.
func TestVerticalSeparatorInAttributeNames(t *testing.T) {
	schema := relation.MustSchema("sep", "A", "B", "C", "A\x1fB", "D", "E")
	rel := relation.New(schema)
	for i, row := range [][]string{
		{"a", "b", "c", "x", "d1", "e1"},
		{"a", "b", "c", "y", "d1", "e2"},
		{"p", "q", "c", "x", "d2", "e3"},
		{"p", "q", "c", "z", "d3", "e3"},
	} {
		rel.MustInsert(relation.Tuple{ID: relation.TupleID(i + 1), Values: row})
	}
	fd := func(id, rhs string, lhs ...string) cfd.CFD {
		pat := make([]string, len(lhs))
		for i := range pat {
			pat[i] = cfd.Wildcard
		}
		return cfd.CFD{ID: id, LHS: lhs, RHS: rhs, LHSPattern: pat, RHSPattern: cfd.Wildcard}
	}
	rules := []cfd.CFD{fd("r1", "D", "A\x1fB", "C"), fd("r2", "E", "A", "B", "C")}
	want := centralized.Detect(rel, rules)
	insert := relation.UpdateList{{Kind: relation.Insert, Tuple: relation.Tuple{ID: 5, Values: []string{"p", "q", "c", "w", "d4", "e4"}}}}
	updated := rel.Clone()
	if err := insert.Apply(updated); err != nil {
		t.Fatal(err)
	}
	wantAfter := centralized.Detect(updated, rules)
	for _, optimized := range []bool{false, true} {
		opts := []Option{WithVertical(partition.RoundRobinVertical(schema, 3))}
		if optimized {
			opts = append(opts, WithOptimizer())
		}
		s := mustOpen(t, rel.Clone(), rules, opts...)
		if !s.Violations().Equal(want) {
			t.Errorf("optimizer=%v: seeded V ≠ centralized oracle", optimized)
		}
		if _, err := s.ApplyBatch(context.Background(), insert); err != nil {
			t.Fatal(err)
		}
		if !s.Violations().Equal(wantAfter) {
			t.Errorf("optimizer=%v: V after a batch ≠ centralized oracle", optimized)
		}
	}
}

// TestRuleAdmission: every engine, in process, refuses a rule change
// that would not leave a valid rule set with its sentinel and changes
// nothing — V, the rules in force, the epoch, every meter. A fixed
// AddRules/RemoveRules sequence then moves the wire meters by exactly the
// pinned amounts, so the rule rounds themselves stay as they were.
func TestRuleAdmission(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 23, 600)
	rules := gen.Rules(5)
	rel := gen.Relation(200)
	unknownAttr := rules[4]
	unknownAttr.ID = "unknown-attribute"
	unknownAttr.RHS = "no such attribute"
	pins := map[string]network.Stats{
		"centralized": {},
		"horizontal":  {Messages: 8, Bytes: 4505},
		"vertical":    {Messages: 22, Bytes: 2016, Eqids: 400},
	}
	for _, style := range []string{"centralized", "horizontal", "vertical"} {
		t.Run(style, func(t *testing.T) {
			sess := build(t, style, rel, rules[:3])
			refusals := []struct {
				name string
				run  func() error
				want error
			}{
				{"AddRules: id in force", func() error { _, err := sess.AddRules(rules[3], rules[1]); return err }, xerr.ErrDuplicateRule},
				{"AddRules: id listed twice", func() error { _, err := sess.AddRules(rules[3], rules[3]); return err }, xerr.ErrDuplicateRule},
				{"AddRules: unknown attribute", func() error { _, err := sess.AddRules(rules[3], unknownAttr); return err }, xerr.ErrUnknownAttribute},
				{"RemoveRules: unknown id", func() error { _, err := sess.RemoveRules(rules[0].ID, rules[3].ID); return err }, xerr.ErrUnknownRule},
				{"RemoveRules: id listed twice", func() error { _, err := sess.RemoveRules(rules[0].ID, rules[0].ID); return err }, xerr.ErrDuplicateRule},
			}
			for _, r := range refusals {
				v, inForce, epoch, stats := sess.Violations().Clone(), sess.Rules(), sess.Epoch(), sess.Stats()
				if err := r.run(); !errors.Is(err, r.want) {
					t.Fatalf("%s: %v, want %v", r.name, err, r.want)
				}
				if !sess.Violations().Equal(v) {
					t.Fatalf("%s: V moved", r.name)
				}
				if got := sess.Rules(); !reflect.DeepEqual(got, inForce) {
					t.Fatalf("%s: rules in force moved", r.name)
				}
				if got := sess.Epoch(); got != epoch {
					t.Fatalf("%s: epoch moved %d → %d", r.name, epoch, got)
				}
				if got := sess.Stats(); !metersEqual(got, stats) {
					t.Fatalf("%s: meters moved", r.name)
				}
			}

			before := sess.Stats()
			steps := []func() error{
				func() error { _, err := sess.AddRules(rules[3], rules[4]); return err },
				func() error { _, err := sess.RemoveRules(rules[0].ID); return err },
				func() error { _, err := sess.AddRules(rules[0]); return err },
				func() error { _, err := sess.RemoveRules(rules[3].ID, rules[1].ID); return err },
			}
			for i, step := range steps {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			final := []cfd.CFD{rules[2], rules[4], rules[0]}
			if !sess.Violations().Equal(centralized.Detect(rel, final)) {
				t.Fatal("V after the rule changes diverged from centralized oracle")
			}
			w, pin := sess.Stats().Sub(before), pins[style]
			if w.Messages != pin.Messages || w.Bytes != pin.Bytes || w.Eqids != pin.Eqids {
				t.Fatalf("rule rounds shipped %d messages, %d bytes, %d eqids; pinned %d, %d, %d",
					w.Messages, w.Bytes, w.Eqids, pin.Messages, pin.Bytes, pin.Eqids)
			}
		})
	}
}
