package repro

// One benchmark per table and figure of the paper's evaluation (§7).
// Each runs the corresponding harness experiment at the Quick scale and
// reports the headline quantities as custom metrics; `go test -bench . -v`
// additionally logs the full table the paper's figure plots. The expbench
// command regenerates the same tables at larger scales.

import (
	"context"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/harness"
	"repro/internal/workload"
)

// benchExperiment runs one harness experiment per iteration, reporting
// the named columns of the final sweep point as metrics.
func benchExperiment(b *testing.B, fn func(harness.Scale) (*harness.Result, error), metrics map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := fn(harness.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := r.Points[len(r.Points)-1]
			for col, unit := range metrics {
				b.ReportMetric(last.Values[col], unit)
			}
			b.Logf("\n%s", r.Format())
		}
	}
}

func BenchmarkFig09a_TPCHVerticalVaryD(b *testing.B) {
	benchExperiment(b, harness.Exp1, map[string]string{"incVer(s)": "inc_s", "batVer(s)": "bat_s"})
}

func BenchmarkFig09bc_TPCHVerticalVaryDelta(b *testing.B) {
	benchExperiment(b, harness.Exp2, map[string]string{"incKB": "incKB", "batKB": "batKB"})
}

func BenchmarkFig09d_TPCHVerticalVarySigma(b *testing.B) {
	benchExperiment(b, harness.Exp3, map[string]string{"incVer(s)": "inc_s", "batVer(s)": "bat_s"})
}

func BenchmarkFig09e_TPCHVerticalScaleup(b *testing.B) {
	benchExperiment(b, harness.Exp4, map[string]string{"inc-scaleup": "inc_su", "bat-scaleup": "bat_su"})
}

func BenchmarkFig09f_TPCHHorizontalVaryD(b *testing.B) {
	benchExperiment(b, harness.Exp6, map[string]string{"incHor(s)": "inc_s", "batHor(s)": "bat_s"})
}

func BenchmarkFig09gh_TPCHHorizontalVaryDelta(b *testing.B) {
	benchExperiment(b, harness.Exp7, map[string]string{"incKB": "incKB", "batKB": "batKB"})
}

func BenchmarkFig09i_TPCHHorizontalVarySigma(b *testing.B) {
	benchExperiment(b, harness.Exp8, map[string]string{"incHor(s)": "inc_s", "batHor(s)": "bat_s"})
}

func BenchmarkFig09j_TPCHHorizontalScaleup(b *testing.B) {
	benchExperiment(b, harness.Exp9, map[string]string{"inc-scaleup": "inc_su", "bat-scaleup": "bat_su"})
}

func BenchmarkFig09k_DBLPVerticalVaryDelta(b *testing.B) {
	benchExperiment(b, harness.Exp2DBLP, map[string]string{"incVer(s)": "inc_s", "batVer(s)": "bat_s"})
}

func BenchmarkFig09l_DBLPVerticalVarySigma(b *testing.B) {
	benchExperiment(b, harness.Exp3DBLP, map[string]string{"incVer(s)": "inc_s", "batVer(s)": "bat_s"})
}

func BenchmarkFig10_EqidShipmentOptimization(b *testing.B) {
	benchExperiment(b, harness.Exp5, map[string]string{"saved%": "saved_pct"})
}

func BenchmarkFig11a_VerticalIncVsRefinedBatch(b *testing.B) {
	benchExperiment(b, func(sc harness.Scale) (*harness.Result, error) {
		return harness.Exp10(sc, "vertical")
	}, map[string]string{"inc(s)": "inc_s", "ibat(s)": "ibat_s"})
}

func BenchmarkFig11b_HorizontalIncVsRefinedBatch(b *testing.B) {
	benchExperiment(b, func(sc harness.Scale) (*harness.Result, error) {
		return harness.Exp10(sc, "horizontal")
	}, map[string]string{"inc(s)": "inc_s", "ibat(s)": "ibat_s"})
}

func BenchmarkMD5CodingAblation(b *testing.B) {
	benchExperiment(b, harness.MD5Ablation, map[string]string{"KB": "KB"})
}

func BenchmarkFanoutEngine(b *testing.B) {
	benchExperiment(b, harness.ExpFanout, map[string]string{"speedup": "speedup"})
}

// --- scatter/gather engine: sequential vs parallel fan-out, n = 8 ---
//
// The same 8-site systems driven with the fan-out worker cap at 1 (the
// pre-engine serial coordinator) and uncapped, over a simulated network
// charging a 1ms round-trip per cross-site message (the EC2-era latency
// an in-process loopback hides; on a single-core host it is also the
// only cost parallelism can overlap). The parallel runs must meter
// exactly the same bytes and messages — the engine changes when messages
// fly, never what is sent — while wall-clock drops.

// benchSession opens a session that the benchmark's cleanup closes: the
// benchmarks below time its ApplyBatch and BatchDetect.
func benchSession(b *testing.B, rel *Relation, rules []CFD, opts ...Option) *Session {
	b.Helper()
	sess, err := Open(rel, rules, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sess.Close() })
	return sess
}

func benchFanoutSystems(b *testing.B) (vsys, hsys *Session, gen *workload.Generator) {
	b.Helper()
	gen = workload.NewSized(workload.TPCH, 7, 8000)
	rules := gen.Rules(30)
	rel := gen.Relation(2000)
	vsys = benchSession(b, rel, rules, WithVertical(RoundRobinVertical(gen.Schema(), 8)), WithOptimizer())
	hsys = benchSession(b, rel, rules, WithHorizontal(HashHorizontal("c_name", 8)))
	vsys.Cluster().SetLinkRTT(time.Millisecond)
	hsys.Cluster().SetLinkRTT(time.Millisecond)
	return vsys, hsys, gen
}

func benchBatchDetectFanout(b *testing.B, workers int) {
	vsys, hsys, _ := benchFanoutSystems(b)
	vsys.Cluster().SetMaxFanout(workers)
	hsys.Cluster().SetMaxFanout(workers)
	// Warm the per-pair meter streams: the first run on a pair pays gob
	// type descriptors once, every later run meters steady-state bytes.
	if _, err := vsys.BatchDetect(); err != nil {
		b.Fatal(err)
	}
	if _, err := hsys.BatchDetect(); err != nil {
		b.Fatal(err)
	}
	var wantBytes, wantMsgs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vsys.Cluster().ResetStats()
		hsys.Cluster().ResetStats()
		if _, err := vsys.BatchDetect(); err != nil {
			b.Fatal(err)
		}
		if _, err := hsys.BatchDetect(); err != nil {
			b.Fatal(err)
		}
		gotBytes := vsys.Stats().Bytes + hsys.Stats().Bytes
		gotMsgs := vsys.Stats().Messages + hsys.Stats().Messages
		if i == 0 {
			wantBytes, wantMsgs = gotBytes, gotMsgs
			b.ReportMetric(float64(gotBytes)/1024, "KB")
			b.ReportMetric(float64(gotMsgs), "msgs")
		} else if gotBytes != wantBytes || gotMsgs != wantMsgs {
			b.Fatalf("meters drifted across runs: %d bytes / %d msgs vs %d / %d",
				gotBytes, gotMsgs, wantBytes, wantMsgs)
		}
	}
}

func BenchmarkBatchDetect8SitesSequential(b *testing.B) { benchBatchDetectFanout(b, 1) }
func BenchmarkBatchDetect8SitesParallel(b *testing.B)   { benchBatchDetectFanout(b, 0) }

func benchApplyBatchFanout(b *testing.B, workers int) {
	vsys, hsys, gen := benchFanoutSystems(b)
	vsys.Cluster().SetMaxFanout(workers)
	hsys.Cluster().SetMaxFanout(workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := gen.Next()
		if _, err := vsys.ApplyBatch(context.Background(), UpdateList{{Kind: Insert, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
		if _, err := hsys.ApplyBatch(context.Background(), UpdateList{{Kind: Insert, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyBatch8SitesSequential(b *testing.B) { benchApplyBatchFanout(b, 1) }
func BenchmarkApplyBatch8SitesParallel(b *testing.B)   { benchApplyBatchFanout(b, 0) }

// --- batch-grouped protocol rounds: ∆D update by update vs whole ---
//
// The same ∆D driven through ApplyBatch one update per call (Unit: one
// protocol round per update, O(|∆D|·n) messages per batch) and in one call
// (Coalesced: one envelope per destination per phase per wave), under a
// simulated 100µs per-message round-trip. Each op applies one batch of
// fresh insertions and one batch deleting them, so index state is steady
// across iterations; the metrics report the measured messages per batch.

func benchBatchApply(b *testing.B, style string, unit bool, batch int) {
	gen := workload.NewSized(workload.TPCH, 11, 16000)
	rules := gen.Rules(50)
	rel := gen.Relation(2000)
	opts := []Option{WithHorizontal(HashHorizontal("c_name", 8))}
	if style == "vertical" {
		opts = []Option{WithVertical(RoundRobinVertical(gen.Schema(), 8)), WithOptimizer()}
	}
	sys := benchSession(b, rel, rules, opts...)
	sys.Cluster().SetLinkRTT(100 * time.Microsecond)
	ins := make(UpdateList, batch)
	del := make(UpdateList, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			t := gen.Next()
			ins[j] = Update{Kind: Insert, Tuple: t}
			del[j] = Update{Kind: Delete, Tuple: t}
		}
		for _, ul := range []UpdateList{ins, del} {
			step := len(ul)
			if unit {
				step = 1
			}
			for at := 0; at < len(ul); at += step {
				if _, err := sys.ApplyBatch(context.Background(), ul[at:at+step]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	st := sys.Stats()
	b.ReportMetric(float64(st.Messages)/float64(2*b.N), "msgs/batch")
	b.ReportMetric(float64(st.Bytes)/float64(2*b.N)/1024, "KB/batch")
}

func BenchmarkBatchApplyHorUnit16(b *testing.B)      { benchBatchApply(b, "horizontal", true, 16) }
func BenchmarkBatchApplyHorCoalesced16(b *testing.B) { benchBatchApply(b, "horizontal", false, 16) }
func BenchmarkBatchApplyHorUnit64(b *testing.B)      { benchBatchApply(b, "horizontal", true, 64) }
func BenchmarkBatchApplyHorCoalesced64(b *testing.B) { benchBatchApply(b, "horizontal", false, 64) }
func BenchmarkBatchApplyVerUnit16(b *testing.B)      { benchBatchApply(b, "vertical", true, 16) }
func BenchmarkBatchApplyVerCoalesced16(b *testing.B) { benchBatchApply(b, "vertical", false, 16) }
func BenchmarkBatchApplyVerUnit64(b *testing.B)      { benchBatchApply(b, "vertical", true, 64) }
func BenchmarkBatchApplyVerCoalesced64(b *testing.B) { benchBatchApply(b, "vertical", false, 64) }

// --- micro-benchmarks: per-update latency of the core algorithms ---

func BenchmarkUnitUpdateVertical(b *testing.B) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	sys := benchSession(b, rel, rules, WithVertical(RoundRobinVertical(gen.Schema(), 10)), WithOptimizer())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := gen.Next()
		if _, err := sys.ApplyBatch(context.Background(), UpdateList{{Kind: Insert, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitUpdateHorizontal(b *testing.B) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	sys := benchSession(b, rel, rules, WithHorizontal(HashHorizontal("c_name", 10)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := gen.Next()
		if _, err := sys.ApplyBatch(context.Background(), UpdateList{{Kind: Insert, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCentralizedDetect(b *testing.B) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectCentralized(rel, rules)
	}
}

// BenchmarkCentralizedIncrementalApply measures the O(|∆D| + |∆V|)
// maintainer's unit cost: one insert + one delete per op keeps the
// maintained state steady across iterations.
func BenchmarkCentralizedIncrementalApply(b *testing.B) {
	gen := workload.NewSized(workload.TPCH, 42, 8000)
	rules := gen.Rules(50)
	rel := gen.Relation(4000)
	inc, err := centralized.NewIncremental(rel, rules)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := gen.Next()
		if _, err := inc.Apply(UpdateList{{Kind: Insert, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Apply(UpdateList{{Kind: Delete, Tuple: t}}); err != nil {
			b.Fatal(err)
		}
	}
}

// Boundedness guard (Theorem 5 / Propositions 6 & 8): the per-update
// shipment must not grow with |D|. Run as a benchmark so it reports the
// measured bytes-per-update at two database sizes.
func BenchmarkBoundednessVerticalShipment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var perUpdate [2]float64
		for k, d := range []int{2000, 8000} {
			gen := workload.NewSized(workload.TPCH, 5, 10000)
			rules := gen.Rules(25)
			rel := gen.Relation(d)
			sys := benchSession(b, rel, rules, WithVertical(RoundRobinVertical(gen.Schema(), 10)))
			updates := gen.Updates(rel, 500, 0.8)
			if _, err := sys.ApplyBatch(context.Background(), updates); err != nil {
				b.Fatal(err)
			}
			perUpdate[k] = float64(sys.Stats().Bytes) / float64(len(updates))
		}
		if i == 0 {
			b.ReportMetric(perUpdate[0], "B/upd@2k")
			b.ReportMetric(perUpdate[1], "B/upd@8k")
		}
	}
}
