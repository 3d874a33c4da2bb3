//go:build !race

package cfd

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/relation"
)

// epochFixture builds a published violation set with n resident tuples.
func epochFixture(n int) *Violations {
	v := NewViolations()
	r1 := v.Intern("phi1")
	v.Intern("phi2")
	for i := 0; i < n; i++ {
		v.AddIdx(relation.TupleID(i), r1)
	}
	v.Publish()
	return v
}

// TestEpochPublishCostProportionalToDelta pins the copy-on-write claim:
// publishing an epoch after k mark flips allocates O(k · trie depth) —
// NOT O(|V|). A full-copy snapshot would allocate ~40× more on the large
// fixture; here the two counts may differ only by the one extra trie
// level a 40×-larger key space needs.
func TestEpochPublishCostProportionalToDelta(t *testing.T) {
	measure := func(n int) float64 {
		v := epochFixture(n)
		r2 := v.Intern("phi2")
		id := relation.TupleID(n / 2)
		return testing.AllocsPerRun(200, func() {
			v.AddIdx(id, r2)
			v.Publish()
			v.RemoveIdx(id, r2)
			v.Publish()
		})
	}
	small := measure(500)
	big := measure(20000)
	if small == 0 {
		t.Fatal("fixture broken: publish of a real delta cannot be allocation-free")
	}
	if big > 3*small {
		t.Errorf("epoch publish cost scales with |V|: %.1f allocs at |V|=500 vs %.1f at |V|=20000", small, big)
	}
	// Absolute ceiling: two publishes of a one-mark delta each copy one
	// root-to-leaf path in the marks trie and one in a posting trie plus
	// the per-epoch headers — a small constant.
	const bound = 60
	if big > bound {
		t.Errorf("epoch publish allocates %.1f objects per flip+publish pair, want ≤ %d", big, bound)
	}
}

// TestDeltaBetweenCostProportionalToChange pins the diff's claim: ∆V
// between a sealed view and the writer walks only the nodes changed
// since, because the two share every other sub-trie by pointer. One
// batch of 16 flips spread over the key space must diff with the same
// allocations at |V| = 500 as at |V| = 20 000, and compare at most one
// root-to-leaf path of nodes per flip; a full comparison would visit
// every node of the larger trie, hundreds of them.
func TestDeltaBetweenCostProportionalToChange(t *testing.T) {
	const flips = 16
	measure := func(n int) (allocs float64, visited int) {
		v := epochFixture(n)
		r1, r2 := v.Intern("phi1"), v.Intern("phi2")
		before := v.Clone()
		for k := 0; k < flips/2; k++ {
			v.AddIdx(relation.TupleID(k*n/8), r2)
			v.RemoveIdx(relation.TupleID(k*n/8+1), r1)
		}
		var d *Delta
		allocs = testing.AllocsPerRun(100, func() { d = DeltaBetween(before, v) })
		if d.AddedMarks() != flips/2 || d.RemovedMarks() != flips/2 {
			t.Fatalf("|V|=%d: delta +%d/−%d, want +%d/−%d", n, d.AddedMarks(), d.RemovedMarks(), flips/2, flips/2)
		}
		var w differ
		w.nodes(before.marks, v.marks, 0)
		return allocs, w.visited
	}
	small, smallVisited := measure(500)
	big, bigVisited := measure(20000)
	if small == 0 {
		t.Fatal("fixture broken: a delta of 16 marks cannot be allocation-free")
	}
	if big != small {
		t.Errorf("diff allocations scale with |V|: %.1f at |V|=500 vs %.1f at |V|=20000", small, big)
	}
	// Three trie levels hold 20 000 keys: at most the root plus two
	// nodes per flip.
	if bound := 1 + 2*flips; smallVisited > bound || bigVisited > bound {
		t.Errorf("diff compared %d nodes at |V|=500 and %d at |V|=20000, want ≤ %d", smallVisited, bigVisited, bound)
	}
}

// TestEpochPublishCopiesEachNodeOnce pins the ownership rule: a publish
// copies each trie node on its flips' paths once, however many flips land
// below it, and changes its copies in place after that. The fixture holds
// keys 0..4095 under phi1 and the keys of every other 64-block under
// phi2, so the keys 64·j+5 for odd j share one leaf node in the marks
// trie and one in phi2's postings. Flipping 32 of them in one publish
// must allocate what flipping one does, plus the single regrowth of the
// postings leaf array the 31 extra keys land in. A publish that walked
// from the root for every flip would copy both paths 32 times.
func TestEpochPublishCopiesEachNodeOnce(t *testing.T) {
	measure := func(k int) float64 {
		v := NewViolations()
		r1, r2 := v.Intern("phi1"), v.Intern("phi2")
		for i := 0; i < 4096; i++ {
			v.AddIdx(relation.TupleID(i), r1)
			if i>>6%2 == 0 {
				v.AddIdx(relation.TupleID(i), r2)
			}
		}
		v.Publish()
		keys := make([]relation.TupleID, k)
		for j := range keys {
			keys[j] = relation.TupleID(64*(2*j+1) + 5)
		}
		return testing.AllocsPerRun(100, func() {
			for _, id := range keys {
				v.AddIdx(id, r2)
			}
			v.Publish()
			for _, id := range keys {
				v.RemoveIdx(id, r2)
			}
			v.Publish()
		})
	}
	one, many := measure(1), measure(32)
	t.Logf("flip+publish pairs: %.1f allocations for 1 key, %.1f for 32", one, many)
	if many > one+1 {
		t.Errorf("a publish of 32 flips under one shared path allocates %.1f objects, want ≤ %.1f (one flip's %.1f + 1 leaf-array regrowth)",
			many, one+1, one)
	}
}

// TestEpochFlipCopiesOneArrayPerNode pins array-level sharing: one flip
// after a seal copies, per node on its path, the header and the one
// array the flip edits — the child array of an inner node, the leaf
// array of the bottom node — and shares the other with the sealed node;
// and of the postings it copies the one chunk holding the rule. The
// fixture holds keys 0..4095 under phi1 plus key 4101, which shares
// key 5's bottom slot, so the level-one node on key 69's path holds both
// leaves and a child; two more rules hold postings in the other chunks.
func TestEpochFlipCopiesOneArrayPerNode(t *testing.T) {
	v := NewViolations()
	for i := 0; i < 40; i++ { // three posting chunks
		v.Intern(fmt.Sprintf("phi%d", i+1))
	}
	r1 := v.Intern("phi1")
	for i := 0; i < 4096; i++ {
		v.AddIdx(relation.TupleID(i), r1)
	}
	v.AddIdx(4101, r1)
	v.Add(4000, "phi20") // every chunk holds a posting
	v.Add(4000, "phi40")
	old := v.Publish()
	v.RemoveIdx(69, r1)
	same := func(a, b unsafe.Pointer) bool { return a == b }
	for _, trie := range []struct {
		name     string
		old, new *amtNode
	}{{"marks", old.marks, v.marks}, {"phi1's postings", old.postingOf(r1).root, v.postingOf(r1).root}} {
		o, n := trie.old, trie.new
		if o == n || len(o.leaves) != 0 || same(unsafe.Pointer(unsafe.SliceData(o.nodes)), unsafe.Pointer(unsafe.SliceData(n.nodes))) {
			t.Fatalf("%s: the root was not copied with its child array alone", trie.name)
		}
		o, n = o.nodes[5], n.nodes[5]
		if len(o.leaves) != 63 || len(o.nodes) != 1 {
			t.Fatalf("%s: fixture broken: the level-one node holds %d leaves and %d children", trie.name, len(o.leaves), len(o.nodes))
		}
		if o == n || same(unsafe.Pointer(unsafe.SliceData(o.leaves)), unsafe.Pointer(unsafe.SliceData(n.leaves))) ||
			!same(unsafe.Pointer(unsafe.SliceData(o.nodes)), unsafe.Pointer(unsafe.SliceData(n.nodes))) {
			t.Errorf("%s: the bottom node was not copied with its leaf array alone, sharing its child array", trie.name)
		}
	}
	for ci, c := range old.post.head {
		if changed := v.post.head[ci] != c; changed != (ci == int(r1)/postChunkLen) {
			t.Errorf("posting chunk %d: copied = %v", ci, changed)
		}
	}
	// Per flip: two paths of two nodes, each a header and one array, and
	// one posting chunk; per publish, the view.
	allocs := testing.AllocsPerRun(100, func() {
		v.Publish()
		v.AddIdx(69, r1)
		v.Publish()
		v.RemoveIdx(69, r1)
	})
	const want = 2*(2*2*2+1) + 2
	if allocs > want {
		t.Errorf("a flip after a seal allocates %.1f objects per add+remove pair with its publishes, want ≤ %d", allocs, want)
	}
}

// TestEpochUnpublishedWarmMarksStayFree: a set that was never published
// owns every trie node it holds, so warm marks change them in place —
// including add → remove → add of one rule's only posting, whose
// emptied root the build keeps.
func TestEpochUnpublishedWarmMarksStayFree(t *testing.T) {
	v := NewViolations()
	r1, r2 := v.Intern("phi1"), v.Intern("phi2")
	v.AddIdx(7, r1)
	allocs := testing.AllocsPerRun(1000, func() {
		v.AddIdx(7, r1)
		v.AddIdx(7, r2)
		v.RemoveIdx(7, r2)
	})
	if allocs != 0 {
		t.Errorf("unpublished warm marks allocated %.1f objects per run, want 0", allocs)
	}
}

// TestEpochPublishedWarmMarksAmortizeToZero: after a publish the first
// flips copy the shared nodes once; from then on the build owns them and
// warm flips allocate nothing, however many land between publishes.
func TestEpochPublishedWarmMarksAmortizeToZero(t *testing.T) {
	v := epochFixture(64)
	r2 := v.Intern("phi2")
	for i := 0; i < 32; i++ {
		v.AddIdx(relation.TupleID(i), r2)
	}
	v.Publish()
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 32; i++ {
			v.AddIdx(relation.TupleID(i), r2)
			v.RemoveIdx(relation.TupleID(i), r2)
		}
	})
	if allocs != 0 {
		t.Errorf("warm marks after a publish allocated %.1f objects per run, want 0", allocs)
	}
	// Sanity: the state did not drift.
	if got := v.Publish().CountRule("phi2"); got != 0 {
		t.Errorf("CountRule(phi2) = %d, want 0", got)
	}
}

// BenchmarkEpochPublish documents the per-batch epoch cost at a
// realistic delta size.
func BenchmarkEpochPublish(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			v := epochFixture(n)
			r2 := v.Intern("phi2")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 64; k++ {
					v.AddIdx(relation.TupleID((i*64+k)%n), r2)
				}
				v.Publish()
				for k := 0; k < 64; k++ {
					v.RemoveIdx(relation.TupleID((i*64+k)%n), r2)
				}
				v.Publish()
			}
		})
	}
}
