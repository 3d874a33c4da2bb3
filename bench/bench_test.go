package main

import (
	"encoding/json"
	"os"
	"testing"
)

// tiny is a workload at a few percent of its committed size: the same
// shape end to end, in well under a second.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	shrink := func(n, min int) int {
		if n = n / 50; n < min {
			n = min
		}
		return n
	}
	sp.rows, sp.warm, sp.meter, sp.opens = shrink(sp.rows, 200), shrink(sp.warm, 2), shrink(sp.meter, 20), 1
	return sp
}

// Every workload, traced, end to end at a tiny scale: the oracle holds,
// nothing fails, and every named metric is reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := newRun(tiny(t, w.name), 1, 0.05, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.execute(); err != nil {
				t.Fatal(err)
			}
			res := r.result(true)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			e2e := r.endToEnd()
			for _, d := range endToEnd {
				if v, ok := e2e[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			if w.tcp && res.Metrics["session.resume_calls"].Value != 0 {
				t.Errorf("a clean-boundary resume issued %v calls", res.Metrics["session.resume_calls"].Value)
			}
			if len(r.rec.spans) == 0 {
				t.Error("a traced run recorded no spans")
			}
		})
	}
}

// An injected wrong V fails the whole run and withholds the metrics.
func TestWrongVFailsEveryOperation(t *testing.T) {
	r, err := newRun(tiny(t, "cent_mem_reads"), 1, 0.05, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.cleanup()
	if err := r.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := r.timed(); err != nil {
		t.Fatal(err)
	}
	if r.oracle(); r.wrongV {
		t.Fatal("oracle failed on the unmodified run")
	}
	// Drop a violating tuple from the mirror only: the session still
	// marks it, a fresh detection cannot.
	marked := r.sess.Query()
	if len(marked) == 0 {
		t.Fatal("workload produced no violations to tamper with")
	}
	if _, err := r.mirror.Delete(marked[0].Tuple); err != nil {
		t.Fatal(err)
	}
	r.oracle()
	res := r.result(false)
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 || len(res.Metrics) != 0 {
		t.Fatalf("wrong V: correct=%v attempted=%d failed=%d metrics=%d; want every operation failed and no metrics",
			res.Correct, res.Attempted, res.Failed, len(res.Metrics))
	}
}

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", p, got, want)
		}
	}
}

// A neighbour's burst over half of the timed phase moves neither the
// latencies nor the rate: each is the fast quartile over the slices.
func TestEndToEndIgnoresABurst(t *testing.T) {
	r := &run{sp: spec{batch: 1}, opens: []float64{1}}
	const n = maxSlices * minSliceBatches * 4
	for i := 0; i < n; i++ {
		us := 40.0
		if i >= n/4 && i < 3*n/4 {
			us = 60
		}
		r.timedS += us / 1e6
		r.lat = append(r.lat, us)
		r.doneAt = append(r.doneAt, r.timedS)
	}
	e2e := r.endToEnd()
	if e2e["apply_p50_us"] != 40 || e2e["apply_p90_us"] != 40 || e2e["updates_per_s"] != 25000 {
		t.Errorf("p50 %v p90 %v rate %v; want the undisturbed 40, 40, 25000",
			e2e["apply_p50_us"], e2e["apply_p90_us"], e2e["updates_per_s"])
	}
}

// Self time subtracts the union of the children, not their sum: a
// fan-out's children overlap.
func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 150},
		{Start: 130, End: 170}, // overlaps the first: union 110..170
		{Start: 180, End: 250}, // runs past the parent: clipped to 180..200
		{Start: 10, End: 20},   // outside the parent: covers nothing
	}
	if got := covered(parent.Start, parent.End, children); got != 80 {
		t.Errorf("covered = %d, want 80", got)
	}
	if got := selfTime(parent, children); got != 20 {
		t.Errorf("selfTime = %d, want 20", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// BENCHMARK.json commits the workloads and metrics the program defines.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) || len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(bm.Workloads), len(bm.EndToEnd), len(bm.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		if g := bm.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := bm.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
}
