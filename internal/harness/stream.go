package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"context"

	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/stream"
	"repro/internal/workload"
)

// StreamKnobs are Exp-stream's scale knobs: how the sustained update
// traffic is shaped. Zero values take scale-proportional defaults.
type StreamKnobs struct {
	// BaseRows is |D| before the stream starts; default 4 × Scale.Unit.
	BaseRows int
	// BatchSize is the nominal |∆Dᵢ|; default Scale.Unit / 2.
	BatchSize int
	// Batches is the stream length; default 8.
	Batches int
	// InsFrac is the insert:delete mix (fraction of insertions). Zero
	// selects the default 0.7; negative requests all-deletion streams
	// (see workload.StreamConfig.InsFrac).
	InsFrac float64
	// Gap is the nominal inter-batch arrival gap; only slept on when
	// Realtime is set, otherwise carried through for reporting.
	Gap time.Duration
	// Realtime makes the pipeline honor arrival gaps (wall-clock
	// pacing); off by default so experiment runs are compute-bound.
	Realtime bool
	// NumRules is |Σ|; default 50 (the paper's TPCH default).
	NumRules int
}

func (k StreamKnobs) withDefaults(sc Scale) StreamKnobs {
	if k.BaseRows <= 0 {
		k.BaseRows = 4 * sc.Unit
	}
	if k.BatchSize <= 0 {
		k.BatchSize = sc.Unit / 2
	}
	if k.Batches <= 0 {
		k.Batches = 8
	}
	if k.InsFrac == 0 {
		k.InsFrac = 0.7
	}
	if k.NumRules <= 0 {
		k.NumRules = tpchRulesDefault
	}
	return k
}

// StreamEngines lists the engine names Exp-stream drives, in order: the
// centralized single-site maintainer and both distributed systems.
func StreamEngines() []string { return []string{"cent", "hor", "ver"} }

// StreamSpec pins one measured stream configuration: everything needed
// to rebuild the engine and regenerate the identical batch sequence,
// deterministically in Scale.Seed.
type StreamSpec struct {
	Scale   Scale
	Knobs   StreamKnobs
	Profile workload.Profile
	// Engine is "cent", "hor" or "ver".
	Engine string
}

// base regenerates the spec's base relation from a fresh generator.
func (sp StreamSpec) base() (*workload.Generator, *relation.Relation) {
	hint := sp.Knobs.BaseRows + sp.Knobs.Batches*sp.Knobs.BatchSize
	gen := workload.NewSized(workload.TPCH, sp.Scale.Seed, hint)
	rel := gen.Relation(sp.Knobs.BaseRows)
	return gen, rel
}

// sessionOver opens the spec's engine over an existing base relation,
// through the same repro.Open construction path as every other caller.
func (sp StreamSpec) sessionOver(rel *relation.Relation, rules []cfd.CFD) (*session.Session, error) {
	switch sp.Engine {
	case "cent":
		return session.Open(rel, rules)
	case "hor":
		return session.Open(rel, rules, session.WithHorizontal(partition.HashHorizontal("c_name", sp.Scale.Sites)))
	case "ver":
		return session.Open(rel, rules, session.WithVertical(partition.RoundRobinVertical(rel.Schema, sp.Scale.Sites)), session.WithOptimizer())
	default:
		return nil, fmt.Errorf("harness: unknown stream engine %q", sp.Engine)
	}
}

// streamCfg is the stream configuration the spec pins.
func (sp StreamSpec) streamCfg() workload.StreamConfig {
	return workload.StreamConfig{
		Profile:   sp.Profile,
		BatchSize: sp.Knobs.BatchSize,
		Batches:   sp.Knobs.Batches,
		InsFrac:   sp.Knobs.InsFrac,
		Gap:       sp.Knobs.Gap,
		Seed:      sp.Scale.Seed,
	}
}

// Build opens the spec's session over a freshly generated base
// relation, seeded and with zeroed meters.
func (sp StreamSpec) Build() (*session.Session, error) {
	gen, rel := sp.base()
	return sp.sessionOver(rel, gen.Rules(sp.Knobs.NumRules))
}

// Source regenerates the spec's batch sequence. Every call — and every
// engine sharing the spec's scale and knobs — yields identical batches.
func (sp StreamSpec) Source() *workload.Stream {
	gen, rel := sp.base()
	return workload.NewStream(gen, rel, sp.streamCfg())
}

// instantiate opens the session and its source from one base
// generation (Build + Source would generate the identical base twice;
// rule derivation and stream composition use rngs independent of the
// generator's row position, so sharing one base is equivalent).
func (sp StreamSpec) instantiate() (*session.Session, *workload.Stream, error) {
	gen, rel := sp.base()
	a, err := sp.sessionOver(rel, gen.Rules(sp.Knobs.NumRules))
	if err != nil {
		return nil, nil, err
	}
	return a, workload.NewStream(gen, rel, sp.streamCfg()), nil
}

// StreamRun is one measured (profile, engine) stream.
type StreamRun struct {
	Spec    StreamSpec
	Summary *stream.Summary
}

// RunStream measures every profile × engine combination under the same
// scale and knobs: the same batch sequence per profile, applied through
// the centralized, horizontal and vertical incremental engines.
func RunStream(sc Scale, k StreamKnobs) ([]StreamRun, error) {
	k = k.withDefaults(sc)
	var runs []StreamRun
	for _, profile := range workload.Profiles() {
		for _, engine := range StreamEngines() {
			sp := StreamSpec{Scale: sc, Knobs: k, Profile: profile, Engine: engine}
			a, src, err := sp.instantiate()
			if err != nil {
				return nil, err
			}
			sum, err := a.Run(context.Background(), src, stream.Options{Realtime: k.Realtime})
			if err != nil {
				return nil, fmt.Errorf("stream %s/%s: %w", profile, engine, err)
			}
			runs = append(runs, StreamRun{Spec: sp, Summary: sum})
		}
	}
	return runs, nil
}

// StreamResult renders the streaming experiment: sustained mixed-update
// traffic in three arrival shapes (churn, skew, burst) through all three
// engines, reporting per-stream net ∆V, final |V|, wire traffic and
// apply-latency percentiles, with every applied batch's meters as the
// Detail table. The paper's one-shot experiments answer "how fast is one
// ∆D"; this one answers "what does continuous traffic cost", the
// scenario class the scaling roadmap measures against.
func StreamResult(runs []StreamRun) *Result {
	var k StreamKnobs
	if len(runs) > 0 {
		k = runs[0].Spec.Knobs // effective knobs (defaults resolved)
	}
	r := &Result{
		Name: "Exp-stream", Figure: "pipeline",
		Title: fmt.Sprintf("update streams: %d batches × %d updates, %.0f%% insertions, |D|₀=%d",
			k.Batches, k.BatchSize, 100*k.InsFrac, k.BaseRows),
		XLabel:  "profile/engine",
		Columns: []string{"updates", "|∆V|net", "|V|", "KB", "msgs", "eqids", "p50ms", "p95ms"},
		Exact: []string{"batches", "updates", "inserts", "deletes", "net_added_marks", "net_removed_marks",
			"violations", "marks", "wire_bytes", "wire_msgs", "eqids"},
		Detail: &Result{
			Name: "Exp-stream-batches", Figure: "pipeline", Title: "every applied batch of Exp-stream",
			XLabel:  "profile/engine/seq",
			Columns: []string{"size", "added_marks", "removed_marks", "violations", "wire_bytes", "wire_msgs", "eqids"},
		},
	}
	r.Detail.Exact = r.Detail.Columns
	for _, run := range runs {
		s := run.Summary
		p50, p95 := ApplyPercentiles(s)
		label := fmt.Sprintf("%s/%s", run.Spec.Profile, run.Spec.Engine)
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: label,
			Values: map[string]float64{
				"updates": float64(s.Updates),
				"|∆V|net": float64(s.Net.Size()),
				"|V|":     float64(s.Violations),
				"KB":      kb(s.WireBytes),
				"msgs":    float64(s.WireMessages),
				"eqids":   float64(s.Eqids),
				"p50ms":   p50,
				"p95ms":   p95,

				"batches": float64(s.Batches), "inserts": float64(s.Inserts), "deletes": float64(s.Deletes),
				"net_added_marks": float64(s.Net.AddedMarks()), "net_removed_marks": float64(s.Net.RemovedMarks()),
				"violations": float64(s.Violations), "marks": float64(s.Marks),
				"wire_bytes": float64(s.WireBytes), "wire_msgs": float64(s.WireMessages),
			},
		})
		for _, b := range s.Results {
			r.Detail.Points = append(r.Detail.Points, Point{
				X:     float64(len(r.Detail.Points)),
				Label: fmt.Sprintf("%s/%d", label, b.Seq),
				Values: map[string]float64{
					"size": float64(b.Size), "added_marks": float64(b.AddedMarks), "removed_marks": float64(b.RemovedMarks),
					"violations": float64(b.Violations), "wire_bytes": float64(b.WireBytes),
					"wire_msgs": float64(b.WireMessages), "eqids": float64(b.Eqids),
				},
			})
		}
	}
	r.Notes = append(r.Notes,
		"per profile, all three engines consume the identical batch sequence; cent ships nothing by construction",
		"net ∆V is canonical (V₀ → V_final) and must agree with a one-shot application of the concatenated stream")
	return r
}

// ApplyPercentiles returns the p50 and p95 apply latency of a stream
// summary in milliseconds.
func ApplyPercentiles(s *stream.Summary) (p50, p95 float64) {
	if len(s.Results) == 0 {
		return 0, 0
	}
	lat := make([]float64, len(s.Results))
	for i, b := range s.Results {
		lat[i] = float64(b.Apply.Nanoseconds()) / 1e6
	}
	sort.Float64s(lat)
	// Nearest-rank (⌈q·n⌉−1): with few samples this reports the tail
	// value a flooring index would hide (8 batches → p95 is the max).
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(lat)))) - 1
		if i < 0 {
			i = 0
		}
		return lat[i]
	}
	return pick(0.50), pick(0.95)
}
