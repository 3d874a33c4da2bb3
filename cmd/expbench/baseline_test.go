package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestBaselineRoundTrip holds the writer and the comparer together at the
// Quick scale: two measurements serialize to the same bytes, a written
// file verifies against a fresh measurement, and a file that differs in
// one value, lacks one row or names one column differently fails with the
// suite, row and column in the message — drift is reported in both
// directions, never skipped.
func TestBaselineRoundTrip(t *testing.T) {
	for _, args := range [][]string{{"-verify", "-quick"}, {"-verify", "-seed", "7"}, {"-verify", "-exp", "net"}, {"-out", "x.json", "-exp", "net"}} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("expbench %v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
	if testing.Short() {
		t.Skip("runs every baseline suite twice")
	}

	first, err := measure(harness.Quick, "", true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	second, err := measure(harness.Quick, "", true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "exact.json")
	if err := first.write(path); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(dir, "again.json")
	if err := second.write(again); err != nil {
		t.Fatal(err)
	}
	if rewritten, _ := os.ReadFile(again); !bytes.Equal(written, rewritten) {
		t.Fatal("two measurements at one scale wrote different bytes")
	}
	if err := verifyFile(path, second, io.Discard); err != nil {
		t.Fatalf("a freshly written baseline does not verify: %v", err)
	}
	for _, banned := range []string{"go_version", "goos", "seconds", `_us"`, "ns_per_op", "allocs_per_op", "(s)", "µs", "ms\""} {
		if bytes.Contains(written, []byte(banned)) {
			t.Errorf("baseline carries a machine-dependent column (%q)", banned)
		}
	}

	// The mutations edit Exp-coalesce, wherever the registry puts it.
	var coal int
	for _, tc := range []struct {
		name   string
		mutate func(b *baseline)
		want   string // the drift line must name suite / row / column
	}{
		{"value flipped", func(b *baseline) { b.Suites[coal].Rows[1].Values["coal_msgs"]++ },
			"Exp-coalesce / hor/256 / coal_msgs: committed"},
		{"row dropped", func(b *baseline) { b.Suites[coal].Rows = b.Suites[coal].Rows[1:] },
			"Exp-coalesce / hor/64: row measured but not committed"},
		{"row added", func(b *baseline) { b.Suites[coal].Rows = append(b.Suites[coal].Rows, row{Row: "hor/9"}) },
			"Exp-coalesce / hor/9: row committed but not measured"},
		{"column renamed", func(b *baseline) {
			v := b.Suites[coal].Rows[0].Values
			v["coalesced_msgs"] = v["coal_msgs"]
			delete(v, "coal_msgs")
		}, "Exp-coalesce / hor/64 / coal_msgs: column measured but not committed"},
		{"suite dropped", func(b *baseline) { b.Suites = append(b.Suites[:coal], b.Suites[coal+1:]...) },
			"Exp-coalesce: suite measured but not committed"},
		{"scale changed", func(b *baseline) { b.Scale.Seed++ }, "scale: committed"},
	} {
		var b baseline
		if err := json.Unmarshal(written, &b); err != nil {
			t.Fatal(err)
		}
		coal = slices.IndexFunc(b.Suites, func(s suite) bool { return s.Name == "Exp-coalesce" })
		if coal < 0 || b.Suites[coal].Rows[1].Row != "hor/256" {
			t.Fatal("the mutations assume an Exp-coalesce suite whose second row is hor/256")
		}
		tc.mutate(&b)
		mutated := filepath.Join(dir, "mutated.json")
		if err := b.write(mutated); err != nil {
			t.Fatal(err)
		}
		var report bytes.Buffer
		if err := verifyFile(mutated, second, &report); err == nil {
			t.Errorf("%s: verify passed", tc.name)
		}
		if !strings.Contains(report.String(), "DRIFT: "+tc.want) {
			t.Errorf("%s: report does not name %q:\n%s", tc.name, tc.want, report.String())
		}
	}

	// The writer refuses a table whose point lacks a declared column.
	res := &harness.Result{Name: "X", Exact: []string{"a", "b"},
		Points: []harness.Point{{Label: "p", Values: map[string]float64{"a": 1}}}}
	if err := new(baseline).add("w", res); err == nil || !strings.Contains(err.Error(), `X / p: exact column "b"`) {
		t.Errorf("writer accepted a point without its exact column: %v", err)
	}
}

// TestExpSelects: -exp is an exact experiment name or a figure substring,
// so a name never selects the longer names it prefixes (Exp-1 is not
// Exp-10-*), and CI's own selections keep selecting exactly what they do.
func TestExpSelects(t *testing.T) {
	for filter, want := range map[string][]string{
		"Exp-1":          {"Exp-1"},
		"Exp-query-read": {"Exp-query-read"},
		"Exp-storage":    {"Exp-storage"},
		"Exp-coalesce":   {"Exp-coalesce"},
		"Fig 11":         {"Exp-10-vertical", "Exp-10-horizontal"},
		"Fig 9(b)":       {"Exp-2"},
		"Exp-10":         nil,
	} {
		var got []string
		for _, e := range selected(filter, false) {
			got = append(got, e.Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("-exp %q selects %v, want %v", filter, got, want)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-exp", "Exp-10"}, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), "no experiment matches") {
		t.Errorf("-exp Exp-10: exit %d, stderr %q; want 1 and no match", code, stderr.String())
	}
}
