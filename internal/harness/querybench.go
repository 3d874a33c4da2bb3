package harness

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/partition"
	"repro/internal/session"
	"repro/internal/workload"
)

// The read-contention sweep (Exp-query-read): readers hammer the
// session's lock-free query surface while a writer churns update batches
// through the engine, measuring read latency in both states. The state
// columns (|D|, |V|, marks, epoch after each phase) are a pure function
// of the seed and are the table's Exact columns; the latency
// percentiles are machine-dependent and only printed. The
// sweep itself asserts the tentpole claim before emitting anything: an
// indexed read's p99 under churn stays within QueryContentionFactor of
// the idle p99 (with a floor absorbing scheduler noise) — reads never
// wait for the writer.

// QueryBenchRow is one phase's deterministic session state.
type QueryBenchRow struct {
	// Phase is idle, churn or burst.
	Phase string
	// Batches and BatchSize describe the writer load during the phase
	// (zero when idle).
	Batches   int
	BatchSize int
	// Rows, Violations, Marks and Epoch describe the session state
	// after the phase — deterministic in the scale's seed.
	Rows       int
	Violations int
	Marks      int
	Epoch      uint64
}

// QueryLatencyRow is one machine-dependent latency record: printed,
// never committed.
type QueryLatencyRow struct {
	Phase   string
	Readers int
	Queries int
	P50us   float64
	P99us   float64
	MaxUs   float64
}

// QueryBenchRun bundles the sweep's output.
type QueryBenchRun struct {
	Rows    []QueryBenchRow
	Latency []QueryLatencyRow
}

// QueryContentionFactor bounds how much an indexed read's p99 may
// degrade under a concurrent churn stream, relative to idle.
const QueryContentionFactor = 10

// queryLatencyFloorUs absorbs scheduler/GC noise on fast machines: with
// idle p99 around a microsecond, a single descheduling would otherwise
// fail the 10× bound spuriously. A churn p99 under the floor passes
// outright.
const queryLatencyFloorUs = 200.0

const queryBenchReaders = 4

// RunQueryBench measures read latency against a horizontal session in
// three phases — idle, churn (many small batches), burst (few large
// batches) — and asserts the contention bound. Deterministic state
// columns are returned for the committed baseline.
func RunQueryBench(sc Scale) (*QueryBenchRun, error) {
	gen := workload.NewSized(workload.TPCH, sc.Seed, 8*sc.Unit)
	rules := gen.Rules(tpchRulesDefault)
	rel := gen.Relation(4 * sc.Unit)
	sess, err := session.Open(rel, rules,
		session.WithHorizontal(partition.HashHorizontal("c_name", sc.Sites)))
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	// Seed churn so the posting indexes have answers to serve.
	mirror := rel.Clone()
	applyOne := func(size int) error {
		updates := gen.Updates(mirror, size, 0.7)
		if err := updates.Normalize().Apply(mirror); err != nil {
			return err
		}
		_, err := sess.ApplyBatch(context.Background(), updates)
		return err
	}
	if err := applyOne(sc.Unit); err != nil {
		return nil, err
	}

	// The measured read: an indexed drill-down on the smallest non-empty
	// rule — the O(answer) path the paper's read side lives on. A small
	// answer keeps the op itself cheap, so the latency percentiles
	// measure waiting (the thing the epoch design eliminates), not
	// enumeration and GC of a giant answer.
	probeRule := func() string {
		probe := ""
		best := -1
		for _, rc := range sess.Count() {
			if rc.Count > 0 && (best < 0 || rc.Count < best) {
				probe, best = rc.Rule, rc.Count
			}
		}
		return probe
	}()

	run := &QueryBenchRun{}
	record := func(phase string, batches, size int, lat []time.Duration) {
		sn := sess.Snapshot()
		m := sn.Measures()
		run.Rows = append(run.Rows, QueryBenchRow{
			Phase: phase, Batches: batches, BatchSize: size,
			Rows: sn.Rows(), Violations: m.ViolatingTuples, Marks: m.Marks,
			Epoch: sn.Epoch(),
		})
		p50, p99, max := percentiles(lat)
		run.Latency = append(run.Latency, QueryLatencyRow{
			Phase: phase, Readers: queryBenchReaders, Queries: len(lat),
			P50us: p50, P99us: p99, MaxUs: max,
		})
	}

	// measure runs the readers while write applies its batches (nil =
	// idle: readers run for a fixed wall slice instead).
	measure := func(write func() error) ([]time.Duration, error) {
		stop := make(chan struct{})
		var mu sync.Mutex
		var all []time.Duration
		var wg sync.WaitGroup
		for r := 0; r < queryBenchReaders; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []time.Duration
				for {
					select {
					case <-stop:
						mu.Lock()
						all = append(all, local...)
						mu.Unlock()
						return
					default:
					}
					t0 := time.Now()
					sn := sess.Snapshot()
					_ = sn.Query(session.ByRule(probeRule), session.Limit(10))
					local = append(local, time.Since(t0))
				}
			}()
		}
		var err error
		if write != nil {
			err = write()
		} else {
			time.Sleep(100 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		return all, err
	}

	// Phase 1: idle — the reference latency.
	idleLat, err := measure(nil)
	if err != nil {
		return nil, err
	}
	record("idle", 0, 0, idleLat)

	// Phase 2: churn — many small batches back-to-back.
	churnBatches, churnSize := 10, sc.Unit/2
	churnLat, err := measure(func() error {
		for i := 0; i < churnBatches; i++ {
			if err := applyOne(churnSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	record("churn", churnBatches, churnSize, churnLat)

	// Phase 3: burst — few large batches (each one holds the writer's
	// state lock longer; readers must still not care).
	burstBatches, burstSize := 3, 2*sc.Unit
	burstLat, err := measure(func() error {
		for i := 0; i < burstBatches; i++ {
			if err := applyOne(burstSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	record("burst", burstBatches, burstSize, burstLat)

	// The tentpole bound: reads never block on the write lock, so
	// contention may cost cache misses and scheduler noise but not a
	// writer's critical section.
	_, idleP99, _ := percentiles(idleLat)
	bound := idleP99 * QueryContentionFactor
	if bound < queryLatencyFloorUs {
		bound = queryLatencyFloorUs
	}
	for _, phase := range []struct {
		name string
		lat  []time.Duration
	}{{"churn", churnLat}, {"burst", burstLat}} {
		if _, p99, _ := percentiles(phase.lat); p99 > bound {
			return nil, fmt.Errorf(
				"query p99 under %s = %.1fµs exceeds %.1fµs (%d× idle p99 %.1fµs, floor %.0fµs): reads are blocking on writes",
				phase.name, p99, bound, QueryContentionFactor, idleP99, queryLatencyFloorUs)
		}
	}
	return run, nil
}

// percentiles returns p50, p99 and max in microseconds.
func percentiles(lat []time.Duration) (p50, p99, max float64) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Nanoseconds()) / 1e3
	}
	return at(0.50), at(0.99), at(1.0)
}

// QueryBenchResult renders the sweep as a Result table.
func QueryBenchResult(run *QueryBenchRun) *Result {
	r := &Result{
		Name: "Exp-query-read", Figure: "session",
		Title:   "read latency vs writer contention (lock-free epoch reads)",
		XLabel:  "phase",
		Columns: []string{"batches", "batchSize", "|V|", "epoch", "p50µs", "p99µs", "maxµs"},
		Exact:   []string{"batches", "batch_size", "rows", "violations", "marks", "epoch"},
	}
	for i, row := range run.Rows {
		lat := run.Latency[i]
		r.Points = append(r.Points, Point{
			X: float64(i), Label: row.Phase,
			Values: map[string]float64{
				"batches": float64(row.Batches), "batchSize": float64(row.BatchSize),
				"|V|": float64(row.Violations), "epoch": float64(row.Epoch),
				"p50µs": lat.P50us, "p99µs": lat.P99us, "maxµs": lat.MaxUs,

				"batch_size": float64(row.BatchSize), "rows": float64(row.Rows),
				"violations": float64(row.Violations), "marks": float64(row.Marks),
			},
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("asserted: churn/burst p99 ≤ max(%d× idle p99, %.0fµs) — reads answer from epoch snapshots, never the write lock",
			QueryContentionFactor, queryLatencyFloorUs))
	return r
}
