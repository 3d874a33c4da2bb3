package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/workload"
)

// streamTestKnobs keeps the acceptance sweep quick: a small base
// relation and short streams, still covering all profiles × engines.
var streamTestKnobs = StreamKnobs{
	BaseRows: 300, BatchSize: 40, Batches: 5, InsFrac: 0.7, NumRules: 20,
}

// TestStreamAcceptance is the PR's acceptance bar: an Exp-stream run with
// a deterministic seed lands, per profile and engine, on the same final
// violation set as a one-shot incremental application of the
// concatenated stream — bit-identical canonical |∆V| and tuple sets.
func TestStreamAcceptance(t *testing.T) {
	runs, err := RunStream(Quick, streamTestKnobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.Profiles()) * len(StreamEngines()); len(runs) != want {
		t.Fatalf("want %d runs, got %d", want, len(runs))
	}
	for _, run := range runs {
		name := string(run.Spec.Profile) + "/" + run.Spec.Engine
		oneShot, err := run.Spec.Build()
		if err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		v0 := oneShot.Violations().Clone()
		concat := workload.Concat(run.Spec.Source().Collect())
		if len(concat) != run.Summary.Updates {
			t.Fatalf("%s: concatenated stream has %d updates, summary counted %d", name, len(concat), run.Summary.Updates)
		}
		if _, err := oneShot.ApplyBatch(context.Background(), concat); err != nil {
			t.Fatalf("%s: one-shot apply: %v", name, err)
		}
		wantNet := cfd.DeltaBetween(v0, oneShot.Violations())
		if got, want := run.Summary.Net.String(), wantNet.String(); got != want {
			t.Errorf("%s: streamed net ∆V ≠ one-shot net ∆V\nstreamed: %s\none-shot: %s", name, got, want)
		}
		if got, want := run.Summary.Net.Size(), wantNet.Size(); got != want {
			t.Errorf("%s: |∆V| %d ≠ one-shot %d", name, got, want)
		}
		if run.Summary.Violations != oneShot.Violations().Len() {
			t.Errorf("%s: final |V| %d ≠ one-shot %d", name, run.Summary.Violations, oneShot.Violations().Len())
		}
	}
}

// TestStreamDeterministic: two RunStream sweeps at the same seed agree
// on every deterministic quantity (net ∆V, final sets, wire meters).
func TestStreamDeterministic(t *testing.T) {
	a, err := RunStream(Quick, streamTestKnobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStream(Quick, streamTestKnobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		name := string(a[i].Spec.Profile) + "/" + a[i].Spec.Engine
		sa, sb := a[i].Summary, b[i].Summary
		if sa.Net.String() != sb.Net.String() {
			t.Errorf("%s: net ∆V differs across identical runs", name)
		}
		if sa.WireBytes != sb.WireBytes || sa.WireMessages != sb.WireMessages || sa.Eqids != sb.Eqids {
			t.Errorf("%s: wire meters differ across identical runs: %d/%d/%d vs %d/%d/%d",
				name, sa.WireBytes, sa.WireMessages, sa.Eqids, sb.WireBytes, sb.WireMessages, sb.Eqids)
		}
		if sa.Violations != sb.Violations || sa.Marks != sb.Marks {
			t.Errorf("%s: final sets differ across identical runs", name)
		}
	}
}

// TestStreamSharedTraffic: per profile, all engines must consume the
// same updates; the centralized engine ships nothing, the distributed
// engines meter nonzero traffic.
func TestStreamExpShape(t *testing.T) {
	runs, err := RunStream(Quick, streamTestKnobs)
	if err != nil {
		t.Fatal(err)
	}
	byProfile := make(map[workload.Profile][]StreamRun)
	for _, r := range runs {
		byProfile[r.Spec.Profile] = append(byProfile[r.Spec.Profile], r)
	}
	for p, rs := range byProfile {
		for _, r := range rs[1:] {
			if r.Summary.Updates != rs[0].Summary.Updates {
				t.Errorf("%s: engines saw different update counts", p)
			}
		}
		for _, r := range rs {
			switch r.Spec.Engine {
			case "cent":
				if r.Summary.WireBytes != 0 {
					t.Errorf("%s/cent metered %d wire bytes", p, r.Summary.WireBytes)
				}
			default:
				if r.Summary.WireBytes == 0 {
					t.Errorf("%s/%s metered no traffic", p, r.Spec.Engine)
				}
			}
		}
	}

	res := StreamResult(runs)
	if len(res.Points) != len(runs) {
		t.Fatalf("StreamResult has %d points for %d runs", len(res.Points), len(runs))
	}
	if want := len(runs) * streamTestKnobs.Batches; len(res.Detail.Points) != want {
		t.Fatalf("StreamResult details %d batches, want %d", len(res.Detail.Points), want)
	}
	out := res.Format()
	for _, col := range res.Columns {
		if !strings.Contains(out, col) {
			t.Errorf("formatted result misses column %q", col)
		}
	}
}
