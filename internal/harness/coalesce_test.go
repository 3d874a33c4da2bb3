package harness

import "testing"

// TestCoalesceShape pins the Exp-coalesce acceptance claims at the Quick
// scale: for every swept (engine, batch size) applying ∆D whole ships at
// least 5× fewer messages than applying it update by update, while the
// eqid meters — the §4/§5 semantic quantity — stay identical, and fewer
// payload bytes: horizontal probes merge per group, and a vertical wave of
// one pays its group headers per update where a whole batch pays them per
// wave. RunCoalesce itself asserts the violation sets and net ∆V are
// bit-identical, so a pass also re-proves parity. Zero RTT: the meter
// claims are latency-independent and the test never sleeps.
func TestCoalesceShape(t *testing.T) {
	rows, err := RunCoalesce(Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(CoalesceBatchSizes()); len(rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(rows))
	}
	for _, r := range rows {
		if r.UnitMsgs == 0 {
			t.Errorf("%s/%d: the update-by-update run shipped no messages (workload too small to compare)", r.Style, r.BatchSize)
			continue
		}
		if r.CoalMsgs*5 > r.UnitMsgs {
			t.Errorf("%s/%d: whole batch sent %d messages vs %d update by update — less than the 5× reduction the batch-grouped rounds promise",
				r.Style, r.BatchSize, r.CoalMsgs, r.UnitMsgs)
		}
		if r.CoalBytes >= r.UnitBytes {
			t.Errorf("%s/%d: whole batch shipped %d bytes vs %d update by update — merged probes (hor) and per-wave group headers (ver) must shrink the payload",
				r.Style, r.BatchSize, r.CoalBytes, r.UnitBytes)
		}
		if r.UnitEqids != r.CoalEqids {
			t.Errorf("%s/%d: eqid meters diverged (update by update %d, whole %d); coalescing merges messages, never eqids",
				r.Style, r.BatchSize, r.UnitEqids, r.CoalEqids)
		}
	}
}

// TestCoalesceResultShape checks the rendered table carries every column
// for every row.
func TestCoalesceResultShape(t *testing.T) {
	rows, err := RunCoalesce(Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := CoalesceResult(rows, 0)
	if len(res.Points) != len(rows) {
		t.Fatalf("result has %d points for %d rows", len(res.Points), len(rows))
	}
	for _, p := range res.Points {
		for _, col := range res.Columns {
			if _, ok := p.Values[col]; !ok {
				t.Errorf("point %s misses column %q", p.Label, col)
			}
		}
	}
}
