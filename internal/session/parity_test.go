package session

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The batch-cut parity suite: each engine has one protocol driver, and a
// per-update round is a wave of one. However ∆D is cut — every update its
// own ApplyBatch, or the whole batch in one call — the maintained V must
// equal a fresh centralized Detect on the current relation after every
// batch, the net ∆V and the shipped eqids must agree, and the whole batch
// must send strictly fewer messages whenever k ≥ 2 updates ship at all:
// coalescing merges messages, never eqids or violations.

// stepwise applies batch one normalised update per ApplyBatch call.
func stepwise(d *Session, batch relation.UpdateList) error {
	norm := batch.Normalize()
	for i := range norm {
		if _, err := d.ApplyBatch(context.Background(), norm[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// checkCut applies batch to step update by update, to whole in one call
// and to the mirrored relation, then holds both V's to a fresh centralized
// Detect on the mirror. It returns the ∆V whole reported.
func checkCut(t *testing.T, label string, step, whole *Session, mirror *relation.Relation, batch relation.UpdateList) *cfd.Delta {
	t.Helper()
	if err := stepwise(step, batch); err != nil {
		t.Fatalf("%s: update by update: %v", label, err)
	}
	delta, err := whole.ApplyBatch(context.Background(), batch)
	if err != nil {
		t.Fatalf("%s: whole batch: %v", label, err)
	}
	if err := batch.Apply(mirror); err != nil {
		t.Fatalf("%s: mirror: %v", label, err)
	}
	want := centralized.Detect(mirror, whole.Rules())
	for _, c := range []struct {
		cut string
		d   *Session
	}{{"update by update", step}, {"whole batch", whole}} {
		if got := c.d.Violations(); !got.Equal(want) {
			t.Fatalf("%s: %s: V ≠ centralized Detect on the mirrored relation\ngot \\ want: %v\nwant \\ got: %v",
				label, c.cut, got.Diff(want), want.Diff(got))
		}
	}
	return delta
}

// checkMeters compares the two cuts' traffic after a run whose batches
// all had k ≥ 2 updates.
func checkMeters(t *testing.T, label string, step, whole *Session) {
	t.Helper()
	sSt, wSt := step.Stats(), whole.Stats()
	if sSt.Eqids != wSt.Eqids {
		t.Errorf("%s: eqids diverged: update by update %d, whole batch %d (coalescing merges messages, never eqids)",
			label, sSt.Eqids, wSt.Eqids)
	}
	if sSt.Messages > 0 && wSt.Messages >= sSt.Messages {
		t.Errorf("%s: whole batches sent %d messages, update by update %d; coalescing must reduce messages",
			label, wSt.Messages, sSt.Messages)
	}
	if sSt.Messages == 0 && wSt.Messages > 0 {
		t.Errorf("%s: whole batches shipped %d messages where update by update shipped none", label, wSt.Messages)
	}
}

// parityCase is one (profile, engine) table entry.
type parityCase struct {
	profile workload.Profile
	style   string
	sites   int
	seed    int64
}

func parityCases() []parityCase {
	var out []parityCase
	for _, p := range workload.Profiles() {
		for si, style := range []string{"horizontal", "vertical"} {
			out = append(out, parityCase{profile: p, style: style, sites: 4 + si, seed: 31 + int64(len(out))})
		}
	}
	return out
}

// parityBuild opens one engine over rel.
func parityBuild(t *testing.T, c parityCase, rel *relation.Relation, rules []cfd.CFD) *Session {
	t.Helper()
	opts := []Option{styleOption(c.style, rel.Schema, c.sites)}
	if c.style == "vertical" && c.seed%2 == 0 {
		opts = append(opts, WithOptimizer())
	}
	if c.style == "horizontal" && c.seed%3 == 0 {
		opts = append(opts, WithoutMD5())
	}
	return mustOpen(t, rel, rules, opts...)
}

// TestUnitCoalescedParity drives both cuts through identical update
// streams of every profile: after every batch both violation sets equal
// the centralized oracle, the stream's net ∆V agrees, and the whole
// batches sent fewer messages overall.
func TestUnitCoalescedParity(t *testing.T) {
	for _, c := range parityCases() {
		c := c
		t.Run(fmt.Sprintf("%s-%s", c.profile, c.style), func(t *testing.T) {
			t.Parallel()
			gen := workload.NewSized(workload.TPCH, c.seed, 4000)
			rules := gen.Rules(24)
			mirror := gen.Relation(260)
			step := parityBuild(t, c, mirror.Clone(), rules)
			whole := parityBuild(t, c, mirror.Clone(), rules)
			src := workload.NewStream(gen, mirror, workload.StreamConfig{
				Profile: c.profile, BatchSize: 24, Batches: 5, InsFrac: 0.65, Seed: c.seed * 7,
			})
			v0 := centralized.Detect(mirror, rules)
			if !v0.Equal(step.Violations()) || !v0.Equal(whole.Violations()) {
				t.Fatal("seeded violation sets differ from the oracle before any batch")
			}
			batches := 0
			for b, ok := src.Next(); ok; b, ok = src.Next() {
				batches++
				checkCut(t, fmt.Sprintf("batch %d", b.Seq), step, whole, mirror, b.Updates)
			}
			if batches == 0 {
				t.Fatal("stream produced no batches")
			}
			stepNet := cfd.DeltaBetween(v0, step.Violations())
			wholeNet := cfd.DeltaBetween(v0, whole.Violations())
			if stepNet.String() != wholeNet.String() {
				t.Fatalf("net ∆V diverged:\nupdate by update: %v\nwhole batches:    %v", stepNet, wholeNet)
			}
			checkMeters(t, "stream", step, whole)
		})
	}
}

// TestCoalescedSingleUpdate pins the k=1 edge: a lone update is a wave of
// one whichever way it is cut, so both cuts cost the same on every meter;
// V tracks the oracle throughout, and the ∆V a single update returns is
// exactly the change it made to V.
func TestCoalescedSingleUpdate(t *testing.T) {
	for _, style := range []string{"horizontal", "vertical"} {
		t.Run(style, func(t *testing.T) {
			gen := workload.NewSized(workload.TPCH, 5, 2000)
			rules := gen.Rules(16)
			mirror := gen.Relation(200)
			step := build(t, style, mirror.Clone(), rules)
			whole := build(t, style, mirror.Clone(), rules)
			for i := 0; i < 12; i++ {
				tup := gen.Next()
				for _, u := range []relation.Update{{Kind: relation.Insert, Tuple: tup}, {Kind: relation.Delete, Tuple: tup}} {
					label := fmt.Sprintf("%v t%d", u.Kind, tup.ID)
					before := whole.Violations().Clone()
					got := checkCut(t, label, step, whole, mirror, relation.UpdateList{u})
					if want := cfd.DeltaBetween(before, whole.Violations()); got.String() != want.String() {
						t.Fatalf("%s: returned ∆V %v, V changed by %v", label, got, want)
					}
				}
			}
			sSt, wSt := step.Stats(), whole.Stats()
			if sSt.Messages != wSt.Messages || sSt.Bytes != wSt.Bytes || sSt.Eqids != wSt.Eqids {
				t.Errorf("a single update cost differently by cut:\nupdate by update: %+v\nwhole batch:      %+v", sSt, wSt)
			}
		})
	}
}

// TestReturnedDeltaIsTheChange holds every engine to the one meaning of
// ∆V: the ∆V a batch returns is exactly the change it made to V, so the
// three engines return the same ∆V for the same batch. Multi-update
// batches of every stream profile are where a ∆V accumulated mark by
// mark would differ from that change: a mark set and cleared again
// within the batch, or cleared where it was never set.
func TestReturnedDeltaIsTheChange(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(string(p), func(t *testing.T) {
			gen := workload.NewSized(workload.TPCH, 2, 4000)
			rules := gen.Rules(24)
			mirror := gen.Relation(300)
			engines := []string{"centralized", "horizontal", "vertical"}
			sessions := make([]*Session, len(engines))
			for i, style := range engines {
				sessions[i] = build(t, style, mirror.Clone(), rules)
			}
			src := workload.NewStream(gen, mirror, workload.StreamConfig{Profile: p, BatchSize: 32, Batches: 6, Seed: 2})
			for b, ok := src.Next(); ok; b, ok = src.Next() {
				var first string
				for i, s := range sessions {
					before := s.Violations().Clone()
					got, err := s.ApplyBatch(context.Background(), b.Updates)
					if err != nil {
						t.Fatalf("batch %d: %s: %v", b.Seq, engines[i], err)
					}
					if want := cfd.DeltaBetween(before, s.Violations()); got.String() != want.String() {
						t.Fatalf("batch %d: %s returned ∆V with %d marks, V changed by %d:\nreturned %v\nchange   %v",
							b.Seq, engines[i], got.Size(), want.Size(), got, want)
					}
					if i == 0 {
						first = got.String()
					} else if got.String() != first {
						t.Fatalf("batch %d: %s returned ∆V %v, %s %v", b.Seq, engines[i], got, engines[0], first)
					}
				}
			}
		})
	}
}
