package session

import (
	"sort"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// query collects the filters of one Query call.
type query struct {
	rules  []string
	tuples []relation.TupleID
	limit  int // <= 0: unlimited
}

// Filter narrows a Query.
type Filter func(*query)

// ByRule restricts the result to tuples violating at least one of the
// given rules; each result's Rules list is restricted to those rules.
// Unknown or retired rule ids match nothing. Answered from the per-rule
// posting index: O(answer), no scan of V.
func ByRule(rules ...string) Filter {
	return func(q *query) { q.rules = append(q.rules, rules...) }
}

// ByTuple restricts the result to the given tuples; duplicates are
// deduplicated. Answered from the per-tuple mark bitsets: O(len(ids)).
func ByTuple(ids ...relation.TupleID) Filter {
	return func(q *query) { q.tuples = append(q.tuples, ids...) }
}

// Limit caps the number of results (after the deterministic
// ascending-TupleID ordering). n <= 0 means unlimited.
func Limit(n int) Filter {
	return func(q *query) { q.limit = n }
}

// Violation is one Query result: a violating tuple and the rules it
// violates (restricted to the queried rules under ByRule), sorted.
type Violation struct {
	Tuple relation.TupleID
	Rules []string
}

// Snapshot is an immutable, lock-free read handle over one published
// epoch of the session: every Query/Count/Measures call on the same
// Snapshot answers from the same consistent cut, no matter how many
// batches writers apply in the meantime. Snapshots are cheap (one
// atomic load, no copying) and safe to hold indefinitely.
type Snapshot struct{ st *readState }

// Snapshot returns a read handle pinned to the latest published epoch.
func (s *Session) Snapshot() Snapshot {
	return Snapshot{st: s.read.Load()}
}

// Epoch identifies the published violation-set epoch this snapshot
// reads. Epochs increase monotonically with every state-changing batch
// or rule change; subscription events carry the epoch they produced.
func (sn Snapshot) Epoch() uint64 { return sn.st.view.Epoch() }

// Rows is |D| at this epoch.
func (sn Snapshot) Rows() int { return sn.st.rows }

// Rules returns the rule set in force at this epoch.
func (sn Snapshot) Rules() []cfd.CFD {
	return append([]cfd.CFD(nil), sn.st.rules...)
}

// RuleInForce reports whether a rule id was in force at this epoch.
func (sn Snapshot) RuleInForce(id string) bool { return sn.st.inForce[id] }

// Epoch returns the session's latest published violation-set epoch
// without taking any lock.
func (s *Session) Epoch() uint64 { return s.Snapshot().Epoch() }

// Query answers a read-side drill-down over the snapshot's violation
// set: which tuples violate which rules. Results are sorted by TupleID.
// With ByRule and/or ByTuple the answer comes from the posting indexes
// and mark bitsets — cost proportional to the answer (plus its sort),
// independent of |V|; with no filter it enumerates all of V.
//
// Edge cases are total, not errors: an unknown or retired rule in
// ByRule contributes nothing, duplicate ids in ByTuple are collapsed,
// and Limit(n) with n <= 0 means unlimited.
func (sn Snapshot) Query(filters ...Filter) []Violation {
	var q query
	for _, f := range filters {
		f(&q)
	}
	if len(q.rules) > 1 {
		seen := make(map[string]bool, len(q.rules))
		dedup := q.rules[:0]
		for _, r := range q.rules {
			if !seen[r] {
				seen[r] = true
				dedup = append(dedup, r)
			}
		}
		q.rules = dedup
	}
	v := sn.st.view

	// Candidate tuples.
	var candidates []relation.TupleID
	switch {
	case len(q.tuples) > 0:
		seen := make(map[relation.TupleID]bool, len(q.tuples))
		for _, id := range q.tuples {
			if !seen[id] && v.Has(id) {
				seen[id] = true
				candidates = append(candidates, id)
			}
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	case len(q.rules) > 0:
		seen := make(map[relation.TupleID]bool)
		for _, r := range q.rules {
			v.EachTupleOfRule(r, func(id relation.TupleID) bool {
				if !seen[id] {
					seen[id] = true
					candidates = append(candidates, id)
				}
				return true
			})
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	default:
		candidates = v.Tuples()
	}

	out := make([]Violation, 0, min(len(candidates), maxIfZero(q.limit, len(candidates))))
	for _, id := range candidates {
		var rules []string
		if len(q.rules) > 0 {
			for _, r := range q.rules {
				idx, ok := v.LookupRule(r)
				if ok && v.HasRuleIdx(id, idx) {
					rules = append(rules, r)
				}
			}
			if len(rules) == 0 {
				continue
			}
			sort.Strings(rules)
		} else {
			rules = v.Rules(id)
		}
		out = append(out, Violation{Tuple: id, Rules: rules})
		if q.limit > 0 && len(out) >= q.limit {
			break
		}
	}
	return out
}

func maxIfZero(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Count returns the snapshot's per-rule violation histogram — every
// rule in force with the number of tuples violating it — from the
// posting index in O(|Σ|). Rules retired with RemoveRules do not
// appear, even though the violation set still remembers their interned
// ids.
func (sn Snapshot) Count() []cfd.RuleCount {
	hist := sn.st.view.Histogram()
	out := hist[:0:0]
	for _, rc := range hist {
		if sn.st.inForce[rc.Rule] {
			out = append(out, rc)
		}
	}
	return out
}

// Measures are the session's aggregate inconsistency measures: the
// drastic and MI-style measures over V plus the |V|/|D| ratio (Parisi &
// Grant's normalized problematic-tuples measure).
type Measures struct {
	cfd.Measures
	// Rows is |D| at measurement time.
	Rows int
	// TupleRatio is ViolatingTuples / Rows (0 when the relation is
	// empty).
	TupleRatio float64
}

// Measures computes the snapshot's aggregate inconsistency measures in
// O(|Σ|).
func (sn Snapshot) Measures() Measures {
	m := Measures{Measures: sn.st.view.Measure(), Rows: sn.st.rows}
	if m.Rows > 0 {
		m.TupleRatio = float64(m.ViolatingTuples) / float64(m.Rows)
	}
	return m
}

// Query answers the drill-down from the session's latest published
// epoch without taking any lock: a long-running ApplyBatch or Run never
// stalls it. See Snapshot.Query; take an explicit Snapshot to issue
// several reads against one consistent cut.
func (s *Session) Query(filters ...Filter) []Violation {
	return s.Snapshot().Query(filters...)
}

// Count returns the per-rule violation histogram from the latest
// published epoch, lock-free. See Snapshot.Count.
func (s *Session) Count() []cfd.RuleCount {
	return s.Snapshot().Count()
}

// Measures computes the aggregate inconsistency measures from the
// latest published epoch, lock-free. See Snapshot.Measures.
func (s *Session) Measures() Measures {
	return s.Snapshot().Measures()
}
