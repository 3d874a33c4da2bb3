// Package relation provides the tuple, schema, relation and update model
// shared by every other package in this repository.
//
// A Relation is a multiset of Tuples over a Schema. Tuples carry a unique
// TupleID which plays the role of the paper's "id" key attribute: vertical
// fragments are joined back together on it, and updates reference it.
// Attribute values are strings; the detection algorithms only ever compare
// values for equality, so a uniform representation keeps the whole system
// simple without losing anything the paper needs.
package relation

import (
	"fmt"

	"repro/internal/xerr"
	"strings"
)

// Schema describes the attributes of a relation. The attribute order is
// significant: Tuple values are positional.
type Schema struct {
	Name  string
	Attrs []string

	index map[string]int
}

// NewSchema builds a schema from a relation name and attribute list.
// Attribute names must be non-empty and unique.
func NewSchema(name string, attrs []string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %q has no attributes", name)
	}
	s := &Schema{Name: name, Attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %q has an empty attribute name at position %d", name, i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("relation: schema %q has duplicate attribute %q", name, a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests,
// examples and generated schemas that are correct by construction.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of attr, or false if the schema lacks it.
func (s *Schema) Index(attr string) (int, bool) {
	i, ok := s.index[attr]
	return i, ok
}

// MustIndex returns the position of attr and panics if absent. Use only
// after the attribute has been validated against the schema.
func (s *Schema) MustIndex(attr string) int {
	i, ok := s.index[attr]
	if !ok {
		panic(fmt.Sprintf("relation: schema %q has no attribute %q", s.Name, attr))
	}
	return i
}

// Has reports whether the schema contains attr.
func (s *Schema) Has(attr string) bool {
	_, ok := s.index[attr]
	return ok
}

// HasAll reports whether the schema contains every attribute in attrs.
func (s *Schema) HasAll(attrs []string) bool {
	for _, a := range attrs {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// Width returns the number of attributes.
func (s *Schema) Width() int { return len(s.Attrs) }

// Project returns a new schema restricted to attrs (in the given order).
func (s *Schema) Project(name string, attrs []string) (*Schema, error) {
	for _, a := range attrs {
		if !s.Has(a) {
			return nil, fmt.Errorf("relation: cannot project %q: schema %q has no attribute %q: %w", name, s.Name, a, xerr.ErrUnknownAttribute)
		}
	}
	return NewSchema(name, attrs)
}

// Equal reports whether two schemas have the same name and attribute list.
func (s *Schema) Equal(o *Schema) bool {
	if s.Name != o.Name || len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

func (s *Schema) String() string {
	return fmt.Sprintf("%s(%s)", s.Name, strings.Join(s.Attrs, ", "))
}
