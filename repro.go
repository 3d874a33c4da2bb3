// Package repro is a Go implementation of
//
//	Wenfei Fan, Jianzhong Li, Nan Tang, Wenyuan Yu:
//	"Incremental Detection of Inconsistencies in Distributed Data"
//	(ICDE 2012; extended version IEEE TKDE 26(6), 2014).
//
// It detects violations of conditional functional dependencies (CFDs) in
// a relation that is partitioned — vertically or horizontally — across
// sites, and maintains the violation set incrementally under batch
// updates with communication and computation costs in O(|∆D| + |∆V|),
// independent of the database size (the paper's boundedness result,
// Theorem 5).
//
// # Quick start
//
// One constructor, Open, builds any engine — centralized (the default),
// horizontal or vertical — behind an engine-agnostic Session:
//
//	schema := repro.MustSchema("EMP", "grade", "street", "city", "zip", "CC", "AC")
//	rules, _ := repro.ParseRules(`
//	    phi1: ([CC, zip] -> [street], (44, _, _))
//	    phi2: ([CC, AC] -> [city], (44, 131, EDI))
//	`)
//	rel := repro.NewRelation(schema)
//	// ... insert tuples ...
//	sess, _ := repro.Open(rel, rules, repro.WithHorizontal(
//	    repro.BySetHorizontal("grade", [][]string{{"A"}, {"B"}, {"C"}})))
//	defer sess.Close()
//	delta, _ := sess.ApplyBatch(ctx, updates) // incHor: ∆V for ∆D
//	hot := sess.Query(repro.ByRule("phi2"), repro.Limit(10))
//	fmt.Println(sess.Count(), sess.Measures(), sess.Stats().Bytes, delta, hot)
//
// Sessions also manage rules live — AddRules/RemoveRules seed or retire
// only the affected rules' marks through metered seed-delta rounds — and
// publish every batch's ∆V through Watch. See examples/ for complete
// programs and DESIGN.md for the system inventory and the experiment
// index reproducing the paper's evaluation.
package repro

import (
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// Session service layer: the engine-agnostic handle every program —
// examples, tools, the experiment harness — constructs through Open.
type (
	// Session is a live detection handle over any engine: incremental
	// batches, live rule management, read-side queries, subscriptions
	// and teardown. See Open.
	Session = session.Session
	// Option configures Open (WithHorizontal, WithVertical, ...).
	Option = session.Option
	// SessionKind is the partition style behind a session.
	SessionKind = session.Kind
	// QueryFilter narrows Session.Query (ByRule, ByTuple, Limit).
	QueryFilter = session.Filter
	// QueryViolation is one Session.Query result row.
	QueryViolation = session.Violation
	// RuleCount is one row of Session.Count's per-rule histogram.
	RuleCount = cfd.RuleCount
	// Measures are Session.Measures' aggregate inconsistency measures
	// (drastic, problematic tuples, MI-style mark count, |V|/|D|).
	Measures = session.Measures
	// WatchEvent is one Session.Watch subscription event, stamped with
	// the global sequence number, the epoch it produced and the gap
	// (events dropped for this subscriber) since the last delivery.
	WatchEvent = session.Event
	// WatchEventKind distinguishes batch, rule-add and rule-remove
	// events.
	WatchEventKind = session.EventKind
	// WatchSubscription is a cancellable Session.Subscribe handle with
	// its event channel and cumulative drop counter.
	WatchSubscription = session.Subscription
	// ReadSnapshot is an immutable epoch snapshot of the session's read
	// state: Query/Count/Measures answered from one consistent cut,
	// never blocking on (or blocked by) writers. See Session.Snapshot.
	ReadSnapshot = session.Snapshot
	// EpochView is a frozen copy-on-write view of a violation set at
	// one publish epoch (the structure behind ReadSnapshot and
	// Violations.Snapshot).
	EpochView = cfd.EpochView
	// JournalStats is Session.Journal's report on the write-ahead
	// journal: whether Open resumed (or reset a corrupt journal), the
	// journaled round count, and how many rounds were re-driven or are
	// still in doubt. Zero unless WithJournalDir is set.
	JournalStats = session.JournalStats
	// StorageStats are one store's page-cache and file counters
	// (hits, misses, faults, evictions, flushed/resident/disk bytes) on
	// an out-of-core session; see Session.StorageStats. A pure function
	// of the input and the budget: the same run repeats them bit for bit.
	StorageStats = storage.Stats
)

// Session kinds.
const (
	KindCentralized = session.Centralized
	KindHorizontal  = session.Horizontal
	KindVertical    = session.Vertical
)

// Watch event kinds.
const (
	EventBatch        = session.EventBatch
	EventRulesAdded   = session.EventRulesAdded
	EventRulesRemoved = session.EventRulesRemoved
)

// Open builds, partitions and seeds a detection system over rel with
// rules, per the options (default: the single-site centralized
// maintainer), and returns the live Session handle.
func Open(rel *Relation, rules []CFD, opts ...Option) (*Session, error) {
	return session.Open(rel, rules, opts...)
}

// Engine selection and tuning options for Open.
var (
	// WithCentralized selects the single-site maintainer (the default).
	WithCentralized = session.WithCentralized
	// WithHorizontal runs §6's incHor over a horizontal partition.
	WithHorizontal = session.WithHorizontal
	// WithVertical runs §4/§5's incVer over a vertical partition.
	WithVertical = session.WithVertical
	// WithOptimizer builds vertical HEVs with §5's optVer.
	WithOptimizer = session.WithOptimizer
	// WithoutMD5 turns §6's MD5 tuple coding off (ablation).
	WithoutMD5 = session.WithoutMD5
	// WithNoIndexes loads fragments only: BatchDetect works, the
	// incremental surface returns ErrNoIndexes.
	WithNoIndexes = session.WithNoIndexes
	// WithMaxFanout caps the scatter/gather engine's workers.
	WithMaxFanout = session.WithMaxFanout
	// WithLinkRTT simulates a per-message network round-trip.
	WithLinkRTT = session.WithLinkRTT
	// WithTCPSites deploys the session across real OS processes: site i
	// lives in the sited daemon at addrs[i] (cmd/sited), reached over
	// framed TCP. Meters stay bit-identical to the in-process loopback;
	// physical socket bytes are tracked by Cluster().FrameBytes().
	WithTCPSites = session.WithTCPSites
	// WithTCPRetryBudget bounds redialing an unreachable daemon before
	// calls fail with ErrSiteDown.
	WithTCPRetryBudget = session.WithTCPRetryBudget
	// WithTCPTLS wraps daemon connections in TLS.
	WithTCPTLS = session.WithTCPTLS
	// WithCheckpointDir makes the sited daemons persist their site state
	// under dir (site i in SiteDir(dir, i)) and the driver mark a durable
	// point after every successful batch and rule change, keeping a
	// bounded replay log of the unacknowledged tail. A killed daemon
	// restarted on the same dir rejoins warm: it recovers its newest
	// checkpoint and the driver replays only the missed calls, under
	// their original sequence numbers, so the wire meters never change.
	WithCheckpointDir = session.WithCheckpointDir
	// WithCheckpointEvery sets how many durable marks a daemon buffers
	// between full snapshots (default 8): smaller compacts more often,
	// larger replays a longer delta log on restart.
	WithCheckpointEvery = session.WithCheckpointEvery
	// WithJournalDir makes the driver itself crash-safe: every round —
	// batch or rule change — is journaled under dir as a write-ahead
	// intent before any site call and marked applied after it commits,
	// so a new Open over the same dir resumes the cluster exactly-once.
	// A clean-boundary crash resumes with zero replayed wire calls; a
	// mid-round crash re-drives the journaled intent under its original
	// sequence numbers, deduped by the sites' reply windows. Requires
	// WithTCPSites and WithCheckpointDir; Session.Journal() reports the
	// resume statistics.
	WithJournalDir = session.WithJournalDir
	// WithJournalEvery sets how many applied rounds the journal keeps
	// before compacting into a fresh epoch file (default 16).
	WithJournalEvery = session.WithJournalEvery
	// WithInDoubtRetryBudget bounds the in-process capped-backoff loop
	// that settles a quarantined in-doubt round (see ErrBatchInDoubt).
	// Zero disables in-process settling — the round settles on the next
	// Open over the journal. Default 10s when journaling.
	WithInDoubtRetryBudget = session.WithInDoubtRetryBudget
	// WithStorageDir runs a centralized session out-of-core: tuples and
	// grouping indexes live in page-structured store files under dir,
	// bounding their resident memory by the page-cache budget instead of
	// |D|. Violation marks, their epoch tries (which carry the per-rule
	// postings) and the tuple-id index stay memory-resident, so reads
	// and ∆V stay in-memory-fast. The stores must be empty (the session
	// seeds them from rel); V is bit-identical to an in-memory session
	// throughout.
	WithStorageDir = session.WithStorageDir
	// WithPageCacheBudget bounds the approximate decoded bytes the
	// storage page caches keep resident (default 64 MiB, negative =
	// unlimited): half to tuples, 35% to groups. Requires WithStorageDir.
	WithPageCacheBudget = session.WithPageCacheBudget
)

// Query filters for Session.Query.
var (
	// ByRule restricts results to tuples violating the given rules,
	// answered from the per-rule posting index in O(answer).
	ByRule = session.ByRule
	// ByTuple restricts results to the given tuples.
	ByTuple = session.ByTuple
	// Limit caps the result count.
	Limit = session.Limit
)

// Sentinel errors, matched with errors.Is; every layer wraps these.
var (
	// ErrArityMismatch marks tuples or patterns of the wrong width.
	ErrArityMismatch = xerr.ErrArityMismatch
	// ErrUnknownAttribute marks references to undeclared attributes.
	ErrUnknownAttribute = xerr.ErrUnknownAttribute
	// ErrNoIndexes marks incremental operations on a WithNoIndexes
	// session.
	ErrNoIndexes = xerr.ErrNoIndexes
	// ErrDuplicateRule marks rule ids colliding with rules in force.
	ErrDuplicateRule = xerr.ErrDuplicateRule
	// ErrUnknownRule marks operations naming a rule not in force.
	ErrUnknownRule = xerr.ErrUnknownRule
	// ErrClosed marks operations on a closed session.
	ErrClosed = xerr.ErrClosed
	// ErrSiteDown marks a TCP-sites operation that exhausted its retry
	// budget against an unreachable or state-lost daemon.
	ErrSiteDown = xerr.ErrSiteDown
	// ErrCheckpointCorrupt marks a checkpoint that failed its integrity
	// checks (bad magic, version or record CRC). A daemon hitting it
	// starts empty and is reseeded in full — partial state is never
	// silently loaded.
	ErrCheckpointCorrupt = xerr.ErrCheckpointCorrupt
	// ErrBatchInDoubt marks a distributed round interrupted after
	// dispatch began: the cluster may hold a partial application. The
	// session quarantines the round and re-drives it under its original
	// sequence numbers — in process within WithInDoubtRetryBudget, or
	// from the journal on the next Open — before accepting new writes;
	// reads keep serving the last published epoch throughout.
	ErrBatchInDoubt = xerr.ErrBatchInDoubt
	// ErrReplayOverflow marks a driver replay log that outgrew its
	// bound before a checkpoint mark pruned it: the daemon behind that
	// log can no longer be caught up, so the condition is surfaced
	// loudly (errors.Is also matches ErrSiteDown) instead of silently
	// truncating the unacknowledged tail.
	ErrReplayOverflow = xerr.ErrReplayOverflow
	// ErrJournalCorrupt marks a driver journal that failed validation
	// beyond a torn tail. Resume never folds partial intent history:
	// Open resets the journal and starts fresh, reporting it via
	// Session.Journal().StartedCorrupt.
	ErrJournalCorrupt = xerr.ErrJournalCorrupt
	// ErrStoreCorrupt marks an out-of-core store file that failed its
	// integrity checks beyond a torn trailing record (bad header,
	// mid-file CRC mismatch, malformed page payload). The store refuses
	// to open — partial state is never silently served.
	ErrStoreCorrupt = xerr.ErrStoreCorrupt
)

// Data model.
type (
	// Schema describes a relation's attributes.
	Schema = relation.Schema
	// Tuple is one row with a unique TupleID.
	Tuple = relation.Tuple
	// TupleID identifies a tuple across all fragments.
	TupleID = relation.TupleID
	// Relation is an in-memory instance of a schema.
	Relation = relation.Relation
	// Update is a tuple insertion or deletion.
	Update = relation.Update
	// UpdateList is a batch update ∆D.
	UpdateList = relation.UpdateList
	// UpdateKind distinguishes insertions from deletions.
	UpdateKind = relation.UpdateKind
)

// Update kinds.
const (
	Insert = relation.Insert
	Delete = relation.Delete
)

// Rules and violations.
type (
	// CFD is a normalized conditional functional dependency (X → B, tp).
	CFD = cfd.CFD
	// CompiledRule is a CFD resolved against a schema: column indexes
	// and pre-split pattern constants, for allocation-free matching.
	CompiledRule = cfd.Compiled
	// RuleIdx is a dense interned rule index within one Violations or
	// Delta (see Violations.Intern / AddIdx).
	RuleIdx = cfd.RuleIdx
	// Violations is V(Σ, D) with per-rule tags.
	Violations = cfd.Violations
	// Delta is ∆V: added and removed violation marks.
	Delta = cfd.Delta
)

// CompileRules resolves every rule against s once, so per-tuple checks
// (MatchesLHS, SingleViolation, grouping keys) never consult the schema.
func CompileRules(s *Schema, rules []CFD) []CompiledRule {
	return cfd.CompileAll(s, rules)
}

// Wildcard is the unnamed pattern variable '_'.
const Wildcard = cfd.Wildcard

// Partitioning.
type (
	// VerticalScheme maps attributes to sites (with replication).
	VerticalScheme = partition.VerticalScheme
	// HorizontalScheme is a list of disjoint covering predicates.
	HorizontalScheme = partition.HorizontalScheme
	// Predicate is one horizontal selection predicate Fi.
	Predicate = partition.Predicate
)

// Detection systems.
type (
	// Stats are the communication meters (messages, bytes, eqids).
	Stats = network.Stats
	// Plan is a §5 HEV build plan with its Neqid cost.
	Plan = optimizer.Plan
)

// Generator produces the synthetic TPCH-like and DBLP-like workloads of
// the evaluation.
type Generator = workload.Generator

// Datasets for NewGenerator.
const (
	TPCH = workload.TPCH
	DBLP = workload.DBLP
)

// NewSchema builds a schema; attribute names must be unique.
func NewSchema(name string, attrs []string) (*Schema, error) { return relation.NewSchema(name, attrs) }

// MustSchema is NewSchema panicking on error.
func MustSchema(name string, attrs ...string) *Schema { return relation.MustSchema(name, attrs...) }

// NewRelation returns an empty relation over schema s.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// NewTuple builds a tuple over schema s, checking arity.
func NewTuple(s *Schema, id TupleID, values []string) (Tuple, error) {
	return relation.NewTuple(s, id, values)
}

// ParseRules parses a multi-line rule file in the paper's notation, e.g.
// "phi1: ([CC, zip] -> [street], (44, _, _))", returning normalized CFDs.
func ParseRules(text string) ([]CFD, error) { return cfd.ParseAll(text) }

// DetectCentralized computes V(Σ, D) on a single-site relation — the
// "two SQL queries" method the paper cites for centralized data, also
// usable as a ground-truth oracle.
func DetectCentralized(rel *Relation, rules []CFD) *Violations {
	return centralizedDetect(rel, rules)
}

// NewVerticalScheme validates an attribute → sites assignment.
func NewVerticalScheme(s *Schema, numSites int, attrSites map[string][]int) (*VerticalScheme, error) {
	return partition.NewVerticalScheme(s, numSites, attrSites)
}

// RoundRobinVertical spreads attributes over numSites fragments.
func RoundRobinVertical(s *Schema, numSites int) *VerticalScheme {
	return partition.RoundRobinVertical(s, numSites)
}

// HashHorizontal partitions by hash of one attribute's value.
func HashHorizontal(attr string, numSites int) *HorizontalScheme {
	return partition.HashHorizontal(attr, numSites)
}

// IDHorizontal partitions by TupleID modulus.
func IDHorizontal(numSites int) *HorizontalScheme { return partition.IDHorizontal(numSites) }

// BySetHorizontal partitions by explicit value sets over one attribute
// (grade ∈ {A}, {B}, {C} in the paper's Fig. 2).
func BySetHorizontal(attr string, valueSets [][]string) *HorizontalScheme {
	return partition.BySetHorizontal(attr, valueSets)
}

// NewGenerator returns a synthetic workload generator (TPCH or DBLP) with
// entity pools proportioned to sizeHint rows.
func NewGenerator(ds workload.Dataset, seed int64, sizeHint int) *Generator {
	return workload.NewSized(ds, seed, sizeHint)
}

// Streaming pipeline.
type (
	// StreamProfile is the arrival shape of an update stream (Churn,
	// Skew or Burst).
	StreamProfile = workload.Profile
	// StreamConfig parameterizes NewUpdateStream.
	StreamConfig = workload.StreamConfig
	// StreamBatch is one stream element: ∆Dᵢ plus its arrival gap.
	StreamBatch = workload.Batch
	// UpdateStream is a deterministic batch source over a base relation.
	UpdateStream = workload.Stream
	// StreamSource yields successive batches to Session.Run.
	StreamSource = session.Source
	// StreamOptions tunes Session.Run (realtime pacing, per-batch
	// callback).
	StreamOptions = session.RunOptions
	// StreamBatchResult meters one applied batch.
	StreamBatchResult = session.BatchResult
	// StreamSummary aggregates one stream run.
	StreamSummary = session.Summary
)

// Stream profiles.
const (
	Churn = workload.Churn
	Skew  = workload.Skew
	Burst = workload.Burst
)

// NewUpdateStream returns a deterministic stream of update batches over
// rel, drawing fresh tuples from gen.
func NewUpdateStream(gen *Generator, rel *Relation, cfg StreamConfig) *UpdateStream {
	return workload.NewStream(gen, rel, cfg)
}

// DeltaBetween returns the canonical net change between two violation
// sets: exactly the marks added and removed going from old to new.
func DeltaBetween(old, new *Violations) *Delta { return cfd.DeltaBetween(old, new) }
