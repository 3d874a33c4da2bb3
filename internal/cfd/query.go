package cfd

// This file holds the result types of the read-side query surface. The
// reads themselves live on EpochView (epoch.go): per-rule drill-down
// answered from the epoch's posting tries (O(answer), never a scan of V)
// and the aggregate inconsistency measures of the database-repair
// literature (Livshits et al.; Parisi & Grant), computed from the same
// postings in O(|Σ|).

// RuleCount pairs a rule id with the number of tuples violating it.
type RuleCount struct {
	Rule  string
	Count int
}

// Measures are aggregate inconsistency measures over V(Σ, D), after
// Livshits et al. ("Properties of Inconsistency Measures for Databases")
// and Parisi & Grant. All derive from the posting index in O(|Σ|).
type Measures struct {
	// Drastic is I_d: 1 when the database is inconsistent at all, else 0.
	Drastic int
	// ViolatingTuples is |V|: the number of tuples in at least one
	// violation (the problematic-tuples measure I_P).
	ViolatingTuples int
	// Marks is the total number of (tuple, rule) violation marks —
	// Σ_φ |V(φ)|, the minimal-inconsistent-sets-style count I_MI where
	// each mark witnesses one violated constraint instance.
	Marks int
	// RulesViolated counts the rules with at least one violating tuple.
	RulesViolated int
}
