package repro

import (
	"io"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/relation"
)

// centralizedDetect is split into its own file to keep repro.go purely
// declarative re-exports.
func centralizedDetect(rel *relation.Relation, rules []cfd.CFD) *cfd.Violations {
	return centralized.Detect(rel, rules)
}

// ReadRelationCSV reads a relation written by WriteRelationCSV (header:
// "id" plus attribute names).
func ReadRelationCSV(r io.Reader, name string) (*Relation, error) {
	return relation.ReadCSV(r, name)
}

// WriteRelationCSV writes the relation as CSV.
func WriteRelationCSV(w io.Writer, rel *Relation) error {
	return relation.WriteCSV(w, rel)
}
