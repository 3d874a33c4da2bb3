package harness

import "testing"

// TestCoalesceShape pins the Exp-coalesce acceptance claims at the Quick
// scale: for every swept (engine, batch size) the batch-grouped protocol
// ships at least 5× fewer messages than the per-update protocol, while
// the eqid meters — the §4/§5 semantic quantity — stay identical. What it
// saves is messages and round trips. Payload bytes shrink only on
// horizontal, whose probes merge per group; a vertical batch carries the
// same eqids plus a header per group, so its payload may sit a hair above
// the per-update protocol's (≤ 2 %). RunCoalesce itself asserts the violation sets and net ∆V
// are bit-identical, so a pass also re-proves parity. Zero RTT: the
// meter claims are latency-independent and the test never sleeps.
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
			t.Errorf("%s/%d: per-update protocol shipped no messages (workload too small to compare)", r.Style, r.BatchSize)
			continue
		}
		if r.CoalMsgs*5 > r.UnitMsgs {
			t.Errorf("%s/%d: coalesced sent %d messages vs unit %d — less than the 5× reduction the batch-grouped rounds promise",
				r.Style, r.BatchSize, r.CoalMsgs, r.UnitMsgs)
		}
		switch r.Style {
		case "hor":
			if r.CoalBytes >= r.UnitBytes {
				t.Errorf("%s/%d: coalesced shipped %d bytes vs unit %d — merged probes must shrink the payload",
					r.Style, r.BatchSize, r.CoalBytes, r.UnitBytes)
			}
		case "ver":
			if float64(r.CoalBytes) > 1.02*float64(r.UnitBytes) {
				t.Errorf("%s/%d: coalesced shipped %d bytes vs unit %d — group headers must stay within 2%% of the payload",
					r.Style, r.BatchSize, r.CoalBytes, r.UnitBytes)
			}
		default:
			t.Errorf("unknown style %q", r.Style)
		}
		if r.UnitEqids != r.CoalEqids {
			t.Errorf("%s/%d: eqid meters diverged (unit %d, coalesced %d); coalescing merges messages, never eqids",
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
