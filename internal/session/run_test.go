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
	"repro/internal/workload"
)

// streamFixture builds a small TPCH base relation, rule set and stream
// constructor, all deterministic in seed.
func streamFixture(seed int64) (*relation.Relation, []cfd.CFD, func() *workload.Stream) {
	const baseRows = 120
	mk := func() (*workload.Generator, *relation.Relation) {
		gen := workload.NewSized(workload.TPCH, seed, 2000)
		return gen, gen.Relation(baseRows)
	}
	gen, rel := mk()
	rules := gen.Rules(10)
	newStream := func() *workload.Stream {
		g, r := mk()
		return workload.NewStream(g, r, workload.StreamConfig{
			Profile: workload.Churn, BatchSize: 15, Batches: 6, InsFrac: 0.7, Seed: seed,
		})
	}
	return rel, rules, newStream
}

func TestStreamSourceDeterministic(t *testing.T) {
	_, _, newStream := streamFixture(3)
	a := workload.Concat(newStream().Collect())
	b := workload.Concat(newStream().Collect())
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Tuple.ID != b[i].Tuple.ID || !a[i].Tuple.EqualValues(b[i].Tuple) {
			t.Fatalf("update %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEngineMatchesOneShot is the pipeline's conservation law: streaming
// the batches one by one through Run lands on the same final violation
// set — and the same canonical net ∆V — as applying the concatenated
// stream in a single ApplyBatch call.
func TestEngineMatchesOneShot(t *testing.T) {
	for _, style := range []string{"centralized", "horizontal", "vertical"} {
		t.Run(style, func(t *testing.T) {
			rel, rules, newStream := streamFixture(7)

			openStyle := func() *Session {
				switch style {
				case "centralized":
					return mustOpen(t, rel, rules)
				case "horizontal":
					return mustOpen(t, rel.Clone(), rules, styleOption(style, rel.Schema, 3))
				default:
					return mustOpen(t, rel.Clone(), rules, styleOption(style, rel.Schema, 3), WithOptimizer())
				}
			}

			streamed := openStyle()
			v0 := streamed.Violations().Clone()
			sum, err := streamed.Run(context.Background(), newStream(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}

			oneShot := openStyle()
			if _, err := oneShot.ApplyBatch(context.Background(), workload.Concat(newStream().Collect())); err != nil {
				t.Fatal(err)
			}

			if !streamed.Violations().Equal(oneShot.Violations()) {
				t.Fatalf("final violation sets differ:\nstreamed %v\none-shot %v",
					streamed.Violations(), oneShot.Violations())
			}
			wantNet := cfd.DeltaBetween(v0, oneShot.Violations())
			if sum.Net.String() != wantNet.String() {
				t.Fatalf("net ∆V differs:\nstreamed %v\none-shot %v", sum.Net, wantNet)
			}
			if sum.Net.Size() != wantNet.Size() {
				t.Fatalf("|∆V| differs: %d vs %d", sum.Net.Size(), wantNet.Size())
			}
		})
	}
}

// TestSummaryMeters checks the per-batch windows tile the cumulative
// meters exactly and the counts add up.
func TestSummaryMeters(t *testing.T) {
	rel, rules, newStream := streamFixture(11)
	sys := mustOpen(t, rel.Clone(), rules, WithHorizontal(partition.HashHorizontal("c_name", 3)))
	sum, err := sys.Run(context.Background(), newStream(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Batches != 6 || len(sum.Results) != 6 {
		t.Fatalf("want 6 batches, got %d (%d results)", sum.Batches, len(sum.Results))
	}
	var bytes, msgs, eqids int64
	var updates int
	for i, r := range sum.Results {
		if r.Seq != i {
			t.Fatalf("result %d has seq %d", i, r.Seq)
		}
		if r.Size != r.Inserts+r.Deletes {
			t.Fatalf("batch %d: size %d ≠ %d inserts + %d deletes", i, r.Size, r.Inserts, r.Deletes)
		}
		bytes += r.WireBytes
		msgs += r.WireMessages
		eqids += r.Eqids
		updates += r.Size
	}
	st := sys.Stats()
	if bytes != st.Bytes || msgs != st.Messages || eqids != st.Eqids {
		t.Fatalf("per-batch windows don't tile the meters: %d/%d/%d vs %d/%d/%d",
			bytes, msgs, eqids, st.Bytes, st.Messages, st.Eqids)
	}
	if sum.WireBytes != bytes || sum.Updates != updates {
		t.Fatalf("summary totals inconsistent with results")
	}
	if sum.Violations != sys.Violations().Len() || sum.Marks != sys.Violations().Marks() {
		t.Fatalf("summary final set inconsistent with engine")
	}
}

// snapshotString renders all of V as sn reads it, through Query, in
// cfd.Violations.String's form: ascending tuples, each with its sorted
// rules.
func snapshotString(sn Snapshot) string {
	var sb strings.Builder
	for i, v := range sn.Query() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "t%d{%s}", v.Tuple, strings.Join(v.Rules, ","))
	}
	return "{" + sb.String() + "}"
}

// TestOnBatchSnapshot checks the callback gets the epoch its batch
// published: the session's current Snapshot, equal to a fresh detection
// over the mirrored data, and unchanged a batch later. Unlike
// streamFixture's relations, this one has violations that every batch
// changes.
func TestOnBatchSnapshot(t *testing.T) {
	gen := workload.NewSized(workload.TPCH, 13, 600)
	rules := gen.Rules(20)
	rel := gen.Relation(300)
	a := mustOpen(t, rel, rules)
	mirror := rel.Clone()
	src := workload.NewStream(gen, rel, workload.StreamConfig{
		Profile: workload.Churn, BatchSize: 30, Batches: 6, InsFrac: 0.7, Seed: 13,
	})
	calls, moved := 0, 0
	var prev Snapshot
	var prevSeen string
	sum, err := a.Run(context.Background(), src, RunOptions{
		OnBatch: func(b workload.Batch, r BatchResult, snap Snapshot) {
			calls++
			moved += r.AddedMarks + r.RemovedMarks
			if snap.Epoch() != a.Epoch() {
				t.Fatalf("batch %d: snapshot epoch %d, session at %d", b.Seq, snap.Epoch(), a.Epoch())
			}
			if m := snap.Measures(); m.ViolatingTuples != r.Violations || m.Marks != r.Marks {
				t.Fatalf("batch %d: snapshot |V|=%d marks=%d, result says %d/%d",
					b.Seq, m.ViolatingTuples, m.Marks, r.Violations, r.Marks)
			}
			if calls > 1 && snapshotString(prev) != prevSeen {
				t.Fatalf("batch %d: the previous batch's snapshot changed", b.Seq)
			}
			if err := b.Updates.Apply(mirror); err != nil {
				t.Fatal(err)
			}
			got, want := snapshotString(snap), centralized.Detect(mirror, rules).String()
			if got != want {
				t.Fatalf("batch %d: snapshot V ≠ oracle V\nsnapshot: %s\noracle:   %s", b.Seq, got, want)
			}
			prev, prevSeen = snap, got
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != sum.Batches || moved == 0 {
		t.Fatalf("OnBatch called %d times for %d batches, ∆V %d marks", calls, sum.Batches, moved)
	}
}

// errAfter fails the engine's k-th Apply.
type errAfter struct {
	engine
	n, failAt int
}

func (e *errAfter) Apply(u relation.UpdateList) (*cfd.Delta, error) {
	e.n++
	if e.n == e.failAt {
		return nil, errors.New("boom")
	}
	return e.engine.Apply(u)
}

func TestEngineErrorStopsRun(t *testing.T) {
	rel, rules, newStream := streamFixture(17)
	a := mustOpen(t, rel, rules)
	a.eng = &errAfter{engine: a.eng, failAt: 3}
	_, err := a.Run(context.Background(), newStream(), RunOptions{})
	if err == nil {
		t.Fatal("want apply error, got nil")
	}
	if got := fmt.Sprint(err); !strings.Contains(got, "batch 2") {
		t.Fatalf("error does not name the failing batch: %q", got)
	}
}

// TestCentralizedStatsZero: a centralized session has no cluster and
// meters no traffic, whatever it applies.
func TestCentralizedStatsZero(t *testing.T) {
	rel, rules, newStream := streamFixture(23)
	a := mustOpen(t, rel, rules)
	sum, err := a.Run(context.Background(), newStream(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Bytes != 0 || st.Messages != 0 || st.Eqids != 0 {
		t.Fatalf("centralized session metered traffic: %+v", st)
	}
	if sum.WireBytes != 0 || sum.WireMessages != 0 || sum.Eqids != 0 {
		t.Fatalf("centralized stream metered traffic: %+v", sum)
	}
	if a.Cluster() != nil || a.Plan() != nil {
		t.Fatal("centralized session exposes a cluster or a plan")
	}
}

// diffSeeds is how many random stream configurations the differential
// property is checked under. The acceptance bar is ≥ 20 seeds under
// -race; CI's dedicated (non-short) race step runs the full sweep,
// while -short runs keep a smaller smoke so the sweep isn't executed
// twice per CI job.
func diffSeeds() int64 {
	if testing.Short() {
		return 6
	}
	return 20
}

// TestDifferentialOracle: for random update streams, after *every*
// batch Run applies, the violation sets maintained incrementally by the
// horizontal and the vertical engine are identical to a fresh
// centralized Detect over the same (mirrored) data. Since both engines
// equal the oracle after each batch, they are also equal to each other
// at every point of the stream. Every seed's stream must move V: one
// whose ∆V is empty throughout would compare nothing that changed.
func TestDifferentialOracle(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds(); seed++ {
		seed := seed
		c := diffShape(seed)
		t.Run(fmt.Sprintf("seed%02d-%s-%s-n%d", seed, c.ds, c.profile, c.sites), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed)
		})
	}
}

// diffCase derives the randomized shape of one seed's stream.
type diffCase struct {
	ds       workload.Dataset
	profile  workload.Profile
	sites    int
	baseRows int
	rules    int
	errRate  float64 // share of generated rows given an injected error; at the generator's default 0.005 most seeds' V never moves
	cfg      workload.StreamConfig
}

func diffShape(seed int64) diffCase {
	c := diffCase{
		ds:       workload.TPCH,
		profile:  workload.Profiles()[seed%3],
		sites:    2 + int(seed%3),
		baseRows: 60 + int(seed%5)*20,
		rules:    6 + int(seed%3)*3,
		errRate:  0.1,
	}
	if seed%2 == 0 {
		c.ds = workload.DBLP
	}
	c.cfg = workload.StreamConfig{
		Profile:   c.profile,
		BatchSize: 8 + int(seed%7),
		Batches:   5,
		InsFrac:   0.55 + float64(seed%4)*0.1,
		Seed:      seed * 101,
	}
	return c
}

func runDifferential(t *testing.T, seed int64) {
	c := diffShape(seed)

	mk := func() (*workload.Generator, *relation.Relation) {
		gen := workload.NewSized(c.ds, seed, 1500)
		gen.ErrRate = c.errRate
		return gen, gen.Relation(c.baseRows)
	}
	gen, rel := mk()
	rules := gen.Rules(c.rules)

	hashAttr := "c_name"
	if c.ds == workload.DBLP {
		hashAttr = "title"
	}
	vertical := []Option{WithVertical(partition.RoundRobinVertical(rel.Schema, c.sites))}
	if seed%2 == 0 {
		vertical = append(vertical, WithOptimizer())
	}
	engines := []struct {
		name string
		opts []Option
	}{
		{"horizontal", []Option{WithHorizontal(partition.HashHorizontal(hashAttr, c.sites))}},
		{"vertical", vertical},
	}

	for _, e := range engines {
		sys := mustOpen(t, rel.Clone(), rules, e.opts...)
		// mirror tracks D ⊕ ∆D₁ ⊕ … batch by batch; the oracle is a
		// fresh full detection over it after every batch. Each engine
		// gets its own stream from a fresh generator at the same seed,
		// so all engines see identical batches.
		mirror := rel.Clone()
		g, _ := mk()
		src := workload.NewStream(g, rel, c.cfg)
		name := e.name
		moved := 0
		_, err := sys.Run(context.Background(), src, RunOptions{
			OnBatch: func(b workload.Batch, res BatchResult, snap Snapshot) {
				moved += res.AddedMarks + res.RemovedMarks
				if err := b.Updates.Validate(mirror); err != nil {
					t.Fatalf("%s seed %d batch %d not applicable: %v", name, seed, b.Seq, err)
				}
				if err := b.Updates.Apply(mirror); err != nil {
					t.Fatalf("%s seed %d batch %d: %v", name, seed, b.Seq, err)
				}
				got, want := snapshotString(snap), centralized.Detect(mirror, rules).String()
				if got != want {
					t.Fatalf("%s seed %d: after batch %d published V ≠ oracle V\npublished: %s\noracle:    %s",
						name, seed, b.Seq, got, want)
				}
			},
		})
		if err != nil {
			t.Fatalf("%s seed %d: %v", e.name, seed, err)
		}
		if moved == 0 {
			t.Fatalf("%s seed %d: the stream never moved V, so the oracle compared nothing that changed", e.name, seed)
		}
	}
}
