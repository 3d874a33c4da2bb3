package session

import (
	"context"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/workload"
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
// with the §5 optimizer), plus any extra options.
func build(t *testing.T, style string, rel *relation.Relation, rules []cfd.CFD, extra ...Option) *Session {
	t.Helper()
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
// ∆V replays the old state onto the new one.
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
			delta.Apply(before)
			if !before.Equal(want) {
				t.Errorf("replaying ∆V over V₀ ≠ oracle")
			}
		})
	}
}

// TestBatchDetectMatchesOracle: the batch baseline recomputes the same
// violation set from the fragments, with and without indexes.
func TestBatchDetectMatchesOracle(t *testing.T) {
	for _, style := range styles {
		for _, noIndexes := range []bool{false, true} {
			rel, rules, _ := engineFixture(3)
			var extra []Option
			if noIndexes {
				extra = append(extra, WithNoIndexes())
			}
			d := build(t, style, rel.Clone(), rules, extra...)
			got, err := d.BatchDetect()
			if err != nil {
				t.Fatal(err)
			}
			want := centralized.Detect(rel, rules)
			if !got.Equal(want) {
				t.Errorf("%s noIndexes=%v: batch V ≠ oracle", style, noIndexes)
			}
		}
	}
}

// TestNoIndexesRejectsIncremental: a NoIndexes system serves the batch
// baseline only; ApplyBatch must fail loudly rather than silently skip
// maintenance.
func TestNoIndexesRejectsIncremental(t *testing.T) {
	for _, style := range styles {
		rel, rules, updates := engineFixture(4)
		d := build(t, style, rel.Clone(), rules, WithNoIndexes())
		if _, err := d.ApplyBatch(context.Background(), updates); err == nil {
			t.Errorf("%s: NoIndexes system accepted ApplyBatch", style)
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
