package session

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sitehost"
	"repro/internal/workload"
	"repro/internal/xerr"
)

func tpch(t *testing.T, seed int64, rows int) (*workload.Generator, *relation.Relation, []cfd.CFD) {
	t.Helper()
	gen := workload.NewSized(workload.TPCH, seed, rows*3)
	rules := gen.Rules(6)
	rel := gen.Relation(rows)
	return gen, rel, rules
}

func openAll(t *testing.T, rel *relation.Relation, rules []cfd.CFD, sites int) map[string]*Session {
	t.Helper()
	cent, err := Open(rel, rules)
	if err != nil {
		t.Fatal(err)
	}
	hor, err := Open(rel, rules, WithHorizontal(partition.HashHorizontal("c_name", sites)))
	if err != nil {
		t.Fatal(err)
	}
	ver, err := Open(rel, rules, WithVertical(partition.RoundRobinVertical(rel.Schema, sites)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Session{"centralized": cent, "horizontal": hor, "vertical": ver}
}

// TestOpenKinds pins that one constructor covers all three engines and
// that each maintains the same violation set under the same batch.
func TestOpenKinds(t *testing.T) {
	gen, rel, rules := tpch(t, 1, 200)
	sessions := openAll(t, rel, rules[:3], 4)
	mirror := rel.Clone()
	updates := gen.Updates(mirror, 50, 0.7)
	if err := updates.Normalize().Apply(mirror); err != nil {
		t.Fatal(err)
	}
	oracle := centralized.Detect(mirror, rules[:3])
	for name, s := range sessions {
		if _, err := s.ApplyBatch(context.Background(), updates); err != nil {
			t.Fatalf("%s: ApplyBatch: %v", name, err)
		}
		if !s.Violations().Equal(oracle) {
			t.Fatalf("%s: V != oracle", name)
		}
		if s.Rows() != mirror.Len() {
			t.Fatalf("%s: Rows() = %d, want %d", name, s.Rows(), mirror.Len())
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if _, err := s.ApplyBatch(context.Background(), nil); !errors.Is(err, xerr.ErrClosed) {
			t.Fatalf("%s: post-Close ApplyBatch error = %v, want ErrClosed", name, err)
		}
	}
}

// TestQuerySurface pins Query/Count/Measures semantics against direct
// inspection of V.
func TestQuerySurface(t *testing.T) {
	_, rel, rules := tpch(t, 2, 300)
	s, err := Open(rel, rules[:4])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := s.Violations()

	all := s.Query()
	if len(all) != v.Len() {
		t.Fatalf("unfiltered Query returned %d rows, |V| = %d", len(all), v.Len())
	}
	for _, row := range all {
		if got := v.Rules(row.Tuple); len(got) != len(row.Rules) {
			t.Fatalf("tuple %d: Query rules %v != V rules %v", row.Tuple, row.Rules, got)
		}
	}

	for _, rc := range s.Count() {
		scan := 0
		for _, id := range v.Tuples() {
			if v.HasRule(id, rc.Rule) {
				scan++
			}
		}
		if rc.Count != scan {
			t.Fatalf("Count(%s) = %d, a scan of V says %d", rc.Rule, rc.Count, scan)
		}
		got := s.Query(ByRule(rc.Rule))
		if len(got) != rc.Count {
			t.Fatalf("Query(ByRule %s) = %d rows, Count = %d", rc.Rule, len(got), rc.Count)
		}
		if rc.Count > 1 {
			lim := s.Query(ByRule(rc.Rule), Limit(1))
			if len(lim) != 1 || lim[0].Tuple != got[0].Tuple {
				t.Fatalf("Query(ByRule %s, Limit 1) = %v, want first of %v", rc.Rule, lim, got[:1])
			}
		}
	}

	if v.Len() > 0 {
		id := v.Tuples()[0]
		got := s.Query(ByTuple(id))
		if len(got) != 1 || got[0].Tuple != id {
			t.Fatalf("Query(ByTuple %d) = %v", id, got)
		}
		if miss := s.Query(ByTuple(relation.TupleID(1 << 40))); len(miss) != 0 {
			t.Fatalf("Query of absent tuple returned %v", miss)
		}
	}

	m := s.Measures()
	if m.ViolatingTuples != v.Len() || m.Marks != v.Marks() || m.Rows != rel.Len() {
		t.Fatalf("Measures = %+v, want |V|=%d marks=%d rows=%d", m, v.Len(), v.Marks(), rel.Len())
	}
	if (m.Drastic == 1) != (v.Len() > 0) {
		t.Fatalf("Drastic = %d with |V| = %d", m.Drastic, v.Len())
	}
}

// TestWatch pins the subscription surface: every applied batch and rule
// change publishes one event with the delta.
func TestWatch(t *testing.T) {
	gen, rel, rules := tpch(t, 3, 150)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sub := s.Subscribe(16)
	defer sub.Cancel()
	ch := sub.C()

	mirror := rel.Clone()
	updates := gen.Updates(mirror, 20, 0.8)
	delta, err := s.ApplyBatch(context.Background(), updates)
	if err != nil {
		t.Fatal(err)
	}
	ev := <-ch
	if ev.Kind != EventBatch || ev.Delta != delta || ev.Seq != 1 {
		t.Fatalf("batch event = %+v", ev)
	}

	if _, err := s.AddRules(rules[3]); err != nil {
		t.Fatal(err)
	}
	if ev = <-ch; ev.Kind != EventRulesAdded || ev.Seq != 2 {
		t.Fatalf("add event = %+v", ev)
	}
	if _, err := s.RemoveRules(rules[3].ID); err != nil {
		t.Fatal(err)
	}
	if ev = <-ch; ev.Kind != EventRulesRemoved || ev.Seq != 3 {
		t.Fatalf("remove event = %+v", ev)
	}
}

// TestCountDropsRetiredRules pins that rules retired with RemoveRules
// disappear from the histogram even though the violation set still
// remembers their interned ids.
func TestCountDropsRetiredRules(t *testing.T) {
	_, rel, rules := tpch(t, 9, 120)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Count()); got != 3 {
		t.Fatalf("Count has %d rows, want 3", got)
	}
	if _, err := s.RemoveRules(rules[1].ID); err != nil {
		t.Fatal(err)
	}
	hist := s.Count()
	if len(hist) != 2 {
		t.Fatalf("Count after RemoveRules has %d rows, want 2: %v", len(hist), hist)
	}
	for _, rc := range hist {
		if rc.Rule == rules[1].ID {
			t.Fatalf("retired rule %s still in Count: %v", rules[1].ID, hist)
		}
	}
}

// TestRunContextCancel pins that a cancelled context stops a stream run
// cleanly: the producer exits, the queue drains, and the session stays
// usable.
func TestRunContextCancel(t *testing.T) {
	gen, rel, rules := tpch(t, 4, 200)
	s, err := Open(rel, rules[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	src := workload.NewStream(gen, rel, workload.StreamConfig{BatchSize: 8, Batches: 1000})
	ctx, cancel := context.WithCancel(context.Background())
	applied := 0
	opts := RunOptions{OnBatch: func(workload.Batch, BatchResult, Snapshot) {
		applied++
		if applied == 3 {
			cancel()
		}
	}}
	if _, err := s.Run(ctx, src, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if applied >= 1000 {
		t.Fatalf("cancel did not stop the stream (applied %d)", applied)
	}
	// The session survives a cancelled run.
	if _, err := s.ApplyBatch(context.Background(), gen.Updates(rel, 1, 1)); err != nil {
		t.Fatalf("ApplyBatch after cancelled Run: %v", err)
	}
}

// TestOptionValidation pins the option/engine compatibility matrix.
func TestOptionValidation(t *testing.T) {
	_, rel, rules := tpch(t, 5, 50)
	bad := []struct {
		opts []Option
		want string // in the error, when set
	}{
		{opts: []Option{WithMaxFanout(1)}},
		{opts: []Option{WithOptimizer()}},
		{opts: []Option{WithOptimizer(), WithHorizontal(partition.HashHorizontal("c_name", 2))}},
		{opts: []Option{WithoutMD5(), WithVertical(partition.RoundRobinVertical(rel.Schema, 2))}},
		{opts: []Option{WithHorizontal(partition.HashHorizontal("c_name", 2)), WithVertical(partition.RoundRobinVertical(rel.Schema, 2))}},
		// In process as over TCP, a deployment spans at most MaxSites:
		// every site is built from a hello, which no site accepts beyond.
		{opts: []Option{WithHorizontal(partition.HashHorizontal("c_name", sitehost.MaxSites+1))},
			want: fmt.Sprintf("%d sites, a deployment spans at most %d", sitehost.MaxSites+1, sitehost.MaxSites)},
	}
	for i, c := range bad {
		_, err := Open(rel, rules[:2], c.opts...)
		if err == nil {
			t.Fatalf("option set %d: Open succeeded, want error", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("option set %d: Open = %v, want an error naming %q", i, err, c.want)
		}
	}
}
