package harness

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Exp-storage measures the out-of-core centralized engine against the
// in-memory default it must be indistinguishable from: a staged ingest
// far beyond the page-cache budget, then an incremental batch sweep,
// with both engines consuming the identical update sequence. At every
// measured row the disk-backed V must be bit-identical to the in-memory
// V — the sweep asserts it before emitting the row, so the committed
// baseline doubles as proof the eviction/fault machinery never loses or
// invents a violation. Deterministic columns are state sizes (|D|, |V|,
// marks, ∆V); cache counters and timings ride along informationally
// (fault/eviction order depends on flush-time map iteration and is not
// reproducible across runs).

// StorageKnobs are Exp-storage's shape knobs. Zero values take
// scale-proportional defaults. The paper-scale run is
// `expbench -unit 1000000 -exp storage` (10M-row ingest); the
// committed baseline uses the default scale to stay CI-sized.
type StorageKnobs struct {
	// Rows is the total ingested |D|; default 10 × Scale.Unit (the
	// stored engine pays O(|group|) per update to re-encode touched
	// group records, so the default stays CI-sized; scale up with
	// -unit).
	Rows int
	// ChunkSize is rows per ingest batch (one measured row per chunk);
	// default Rows/10.
	ChunkSize int
	// Batches is the incremental sweep length after ingest; default 6.
	Batches int
	// BatchSize is |∆D| per sweep batch; default Scale.Unit / 2.
	BatchSize int
	// InsFrac is the sweep's insert fraction; default 0.7.
	InsFrac float64
	// CacheBudget is the stored session's page-cache budget in bytes;
	// default 256 KiB — far below any default-scale data size.
	CacheBudget int64
	// NumRules is |Σ|; default 10 (every rule multiplies the group-store
	// traffic, so the storage sweep uses a smaller set than the paper's
	// 50-rule detection experiments).
	NumRules int
}

func (k StorageKnobs) withDefaults(sc Scale) StorageKnobs {
	if k.Rows <= 0 {
		k.Rows = 10 * sc.Unit
	}
	if k.ChunkSize <= 0 {
		k.ChunkSize = k.Rows / 10
		if k.ChunkSize < 1 {
			k.ChunkSize = 1
		}
	}
	if k.Batches <= 0 {
		k.Batches = 6
	}
	if k.BatchSize <= 0 {
		k.BatchSize = sc.Unit / 2
		if k.BatchSize < 10 {
			k.BatchSize = 10
		}
	}
	if k.InsFrac == 0 {
		k.InsFrac = 0.7
	}
	if k.CacheBudget == 0 {
		k.CacheBudget = 256 << 10
	}
	if k.NumRules <= 0 {
		k.NumRules = 10
	}
	return k
}

// StorageRow is one measured point of the sweep; every field is a pure
// function of the scale's seed and the knobs.
type StorageRow struct {
	// Phase is "ingest" or "batch".
	Phase string
	// Seq numbers the chunk or batch within its phase, from 1.
	Seq int
	// Rows is |D| after this step.
	Rows int
	// DeltaMarks is |∆V| of this step.
	DeltaMarks int
	// Violations and Marks are |V| (tuples) and total marks after this
	// step — asserted bit-identical between the disk and memory engines
	// before the row is emitted.
	Violations int
	Marks      int
}

// StorageRun is one full sweep: the deterministic rows plus the
// informational cache/file counters and timings of the stored engine.
type StorageRun struct {
	Knobs StorageKnobs
	Rows  []StorageRow

	// Stats are the stored session's final per-store counters, keyed
	// "tuples", "groups", "postings". Informational: eviction order is
	// not reproducible, so none of them is an Exact column.
	Stats map[string]storage.Stats
	// DiskBytes and ResidentBytes aggregate Stats; the sweep asserts
	// DiskBytes exceeds the cache budget (the data did not fit).
	DiskBytes     int64
	ResidentBytes int64
	// IngestSeconds and SweepSeconds are the stored engine's wall-clock
	// (informational; the in-memory twin is not timed).
	IngestSeconds float64
	SweepSeconds  float64
}

// RunStorage executes the out-of-core sweep at the given scale: a
// disk-backed and an in-memory centralized session consume the same
// ingest chunks and update batches, with V bit-identity asserted at
// every measured row.
func RunStorage(sc Scale, k StorageKnobs) (*StorageRun, error) {
	k = k.withDefaults(sc)
	run := &StorageRun{Knobs: k}

	dir, err := os.MkdirTemp("", "repro-storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	gen := workload.NewSized(workload.TPCH, sc.Seed, k.Rows+k.Batches*k.BatchSize)
	rules := gen.Rules(k.NumRules)
	all := gen.Relation(k.Rows)

	stored, err := session.Open(relation.New(gen.Schema()), rules,
		session.WithStorageDir(dir), session.WithPageCacheBudget(k.CacheBudget))
	if err != nil {
		return nil, err
	}
	defer stored.Close()
	mem, err := session.Open(relation.New(gen.Schema()), rules)
	if err != nil {
		return nil, err
	}
	defer mem.Close()

	step := func(phase string, seq int, updates relation.UpdateList) (time.Duration, error) {
		start := time.Now()
		sd, err := stored.ApplyBatch(context.Background(), updates)
		if err != nil {
			return 0, fmt.Errorf("storage: %s %d: stored apply: %w", phase, seq, err)
		}
		elapsed := time.Since(start)
		md, err := mem.ApplyBatch(context.Background(), updates)
		if err != nil {
			return 0, fmt.Errorf("storage: %s %d: mem apply: %w", phase, seq, err)
		}
		if sd.Size() != md.Size() {
			return 0, fmt.Errorf("storage: %s %d: ∆V size %d (disk) vs %d (mem)", phase, seq, sd.Size(), md.Size())
		}
		if !stored.Violations().Equal(mem.Violations()) {
			return 0, fmt.Errorf("storage: %s %d: disk V diverged from in-memory V", phase, seq)
		}
		v := stored.Violations()
		run.Rows = append(run.Rows, StorageRow{
			Phase: phase, Seq: seq, Rows: stored.Rows(),
			DeltaMarks: sd.Size(), Violations: v.Len(), Marks: v.Marks(),
		})
		return elapsed, nil
	}

	// Phase 1: staged ingest, one measured row per chunk.
	var chunk relation.UpdateList
	seq := 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		seq++
		elapsed, err := step("ingest", seq, chunk)
		if err != nil {
			return err
		}
		run.IngestSeconds += elapsed.Seconds()
		chunk = chunk[:0]
		return nil
	}
	var ingestErr error
	all.Each(func(t relation.Tuple) bool {
		chunk = append(chunk, relation.Update{Kind: relation.Insert, Tuple: t})
		if len(chunk) >= k.ChunkSize {
			ingestErr = flush()
		}
		return ingestErr == nil
	})
	if ingestErr == nil {
		ingestErr = flush()
	}
	if ingestErr != nil {
		return nil, ingestErr
	}

	// Phase 2: the incremental batch sweep over the ingested relation.
	mirror := all.Clone()
	for b := 1; b <= k.Batches; b++ {
		updates := gen.Updates(mirror, k.BatchSize, k.InsFrac)
		elapsed, err := step("batch", b, updates)
		if err != nil {
			return nil, err
		}
		run.SweepSeconds += elapsed.Seconds()
		if err := updates.Normalize().Apply(mirror); err != nil {
			return nil, err
		}
	}

	run.Stats = stored.StorageStats()
	for _, st := range run.Stats {
		run.DiskBytes += st.DiskBytes
		run.ResidentBytes += st.ResidentBytes
	}
	if run.DiskBytes <= k.CacheBudget {
		return nil, fmt.Errorf("storage: data fit the cache: %d disk bytes under a %d budget — raise -unit",
			run.DiskBytes, k.CacheBudget)
	}
	var evictions uint64
	for _, st := range run.Stats {
		evictions += st.Evictions
	}
	if evictions == 0 {
		return nil, fmt.Errorf("storage: no page was ever evicted — budget not exercised")
	}
	return run, nil
}

// storageWorkload is Exp-storage's workload line: the knobs the scale
// resolves to.
func storageWorkload(sc Scale) string {
	k := StorageKnobs{}.withDefaults(sc)
	return fmt.Sprintf("TPCH-like seed=%d rows=%d chunk=%d batches=%d×%d |Σ|=%d, page-cache budget %d KiB",
		sc.Seed, k.Rows, k.ChunkSize, k.Batches, k.BatchSize, k.NumRules, k.CacheBudget>>10)
}

// StorageResult renders the out-of-core sweep as an experiment table.
func StorageResult(run *StorageRun) *Result {
	k := run.Knobs
	r := &Result{
		Name: "Exp-storage", Figure: "out-of-core",
		Title: fmt.Sprintf("disk-backed vs in-memory: %d rows ingested in %d-row chunks, then %d batches × %d, budget %d KiB",
			k.Rows, k.ChunkSize, k.Batches, k.BatchSize, k.CacheBudget>>10),
		XLabel:  "phase",
		Columns: []string{"|D|", "|∆V|", "|V|", "marks"},
		Exact:   []string{"rows", "delta_marks", "violations", "marks"},
	}
	for _, row := range run.Rows {
		r.Points = append(r.Points, Point{
			X:     float64(len(r.Points)),
			Label: fmt.Sprintf("%s-%d", row.Phase, row.Seq),
			Values: map[string]float64{
				"|D|":   float64(row.Rows),
				"|∆V|":  float64(row.DeltaMarks),
				"|V|":   float64(row.Violations),
				"marks": float64(row.Marks),

				"rows": float64(row.Rows), "delta_marks": float64(row.DeltaMarks), "violations": float64(row.Violations),
			},
		})
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("V asserted bit-identical to the in-memory engine at every row; %d KiB resident vs %d KiB on disk",
			run.ResidentBytes>>10, run.DiskBytes>>10),
		fmt.Sprintf("stored engine wall-clock: ingest %.2fs, sweep %.2fs (informational)",
			run.IngestSeconds, run.SweepSeconds))
	return r
}
