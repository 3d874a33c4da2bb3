package vertical_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/sitehost"
	"repro/internal/vertical"
)

// The stage runner's call-count guards, over real sockets: a vertical
// system driving in-process site daemons through the framed TCP
// transport, with every Invoke counted per (site, method) on the way.

// countingTransport counts the calls a TCPTransport ships.
type countingTransport struct {
	*network.TCPTransport
	mu    sync.Mutex
	calls map[string][]int // method → per-site call count
}

func (c *countingTransport) Invoke(to network.SiteID, method string, data []byte) ([]byte, error) {
	c.mu.Lock()
	if c.calls[method] == nil {
		c.calls[method] = make([]int, len(c.SiteCalls()))
	}
	c.calls[method][to]++
	c.mu.Unlock()
	return c.TCPTransport.Invoke(to, method, data)
}

// take returns the counts since the last take.
func (c *countingTransport) take() map[string][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.calls
	c.calls = make(map[string][]int)
	return out
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// tcpSystem seeds rel into fresh site daemons and returns the system
// with its counting transport.
func tcpSystem(t *testing.T, rel *relation.Relation, scheme *partition.VerticalScheme, rules []cfd.CFD) (*vertical.System, *countingTransport) {
	t.Helper()
	addrs := make([]string, scheme.NumSites)
	for i := range addrs {
		srv, err := sitehost.Serve(sitehost.NewHost(), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	plan, err := vertical.PlanFor(rules, scheme, false)
	if err != nil {
		t.Fatal(err)
	}
	hellos, err := sitehost.VerticalHellos([8]byte{1, 2, 3, 4, 5, 6, 7, 8}, rel.Schema, scheme, plan, rules, sitehost.Checkpointing{})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := network.NewTCPTransport(addrs, network.TCPConfig{Hellos: hellos})
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTransport{TCPTransport: tcp, calls: make(map[string][]int)}
	drv := network.NewCluster(scheme.NumSites)
	drv.UseRemoteTransport(tr)
	sys, err := vertical.NewSystem(drv, rel, scheme, plan, rules, vertical.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Cluster().Close() })
	return sys, tr
}

// ringScheme spreads four attribute families over four sites — a1..ak at
// site 0, b* at 1, c* at 2, d* at 3 — and ringRules closes, per family
// index, the ring [a,b]→c, [b,c]→d, [c,d]→a, [d,a]→b: every site hosts
// base nodes (stage 0) and one composed node per index (stage 1), and
// the same site pairs ship eqids, however many indexes there are.
func ringScheme(t *testing.T, k int) (*relation.Schema, *partition.VerticalScheme) {
	t.Helper()
	var attrs []string
	sites := make(map[string][]int)
	for f, fam := range []string{"a", "b", "c", "d"} {
		for i := 1; i <= k; i++ {
			a := fmt.Sprintf("%s%d", fam, i)
			attrs = append(attrs, a)
			sites[a] = []int{f}
		}
	}
	schema := relation.MustSchema("R", attrs...)
	scheme, err := partition.NewVerticalScheme(schema, 4, sites)
	if err != nil {
		t.Fatal(err)
	}
	return schema, scheme
}

func ringRules(t *testing.T, k int) []cfd.CFD {
	t.Helper()
	var text string
	for i := 1; i <= k; i++ {
		for r, ring := range [][3]string{{"a", "b", "c"}, {"b", "c", "d"}, {"c", "d", "a"}, {"d", "a", "b"}} {
			text += fmt.Sprintf("r%d_%d: ([%s%d, %s%d] -> [%s%d], (_, _, _))\n", i, r, ring[0], i, ring[1], i, ring[2], i)
		}
	}
	rules, err := cfd.ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func ringTuple(schema *relation.Schema, id int) relation.Tuple {
	vals := make([]string, schema.Width())
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", (id*(i+3))%3)
	}
	return relation.Tuple{ID: relation.TupleID(id), Values: vals}
}

// TestStageCallBound: per wave, v.batchResolve calls are at most (D+1)·n
// and v.batchDeliver messages at most (D+1)·n(n−1) for a plan of depth D
// over n sites — and they do not grow with the plan: two rule sets of
// equal depth whose node counts differ fourfold make exactly the same
// calls. The transport's own per-site sequence numbers agree with the
// count.
func TestStageCallBound(t *testing.T) {
	const n, families = 4, 4
	schema, scheme := ringScheme(t, families)
	type measured struct {
		nodes, depth     int
		resolve, deliver int
	}
	measure := func(rules []cfd.CFD) measured {
		rel := relation.New(schema)
		for id := 1; id <= 20; id++ {
			rel.MustInsert(ringTuple(schema, id))
		}
		sys, tr := tcpSystem(t, rel, scheme, rules)
		m := measured{nodes: len(sys.Plan().Nodes), depth: slices.Max(sys.Plan().Stages())}

		var wave relation.UpdateList
		for id := 21; id <= 28; id++ {
			wave = append(wave, relation.Update{Kind: relation.Insert, Tuple: ringTuple(schema, id)})
		}
		tr.take()
		before := tr.SiteCalls()
		if _, err := sys.Apply(wave); err != nil {
			t.Fatal(err)
		}
		calls := tr.take()
		total := 0
		for _, perSite := range calls {
			total += sum(perSite)
		}
		var seqs int
		for i, after := range tr.SiteCalls() {
			seqs += int(after - before[i])
		}
		if total != seqs {
			t.Errorf("counted %d calls, the transport numbered %d", total, seqs)
		}
		m.resolve, m.deliver = sum(calls["v.batchResolve"]), sum(calls["v.batchDeliver"])
		if max := (m.depth + 1) * n; m.resolve == 0 || m.resolve > max {
			t.Errorf("%d nodes, depth %d: %d v.batchResolve calls per wave, want 1..%d", m.nodes, m.depth, m.resolve, max)
		}
		if max := (m.depth + 1) * n * (n - 1); m.deliver == 0 || m.deliver > max {
			t.Errorf("%d nodes, depth %d: %d v.batchDeliver messages per wave, want 1..%d", m.nodes, m.depth, m.deliver, max)
		}
		if want := centralized.Detect(mirror(rel, wave), rules); !sys.Violations().Equal(want) {
			t.Errorf("%d nodes: V diverged from the centralized oracle", m.nodes)
		}
		return m
	}
	small, big := measure(ringRules(t, 1)), measure(ringRules(t, families))
	t.Logf("small %+v, big %+v", small, big)
	if big.nodes < 3*small.nodes || big.depth != small.depth {
		t.Fatalf("fixture: plans of %d and %d nodes, depths %d and %d; want >= 3x the nodes at equal depth",
			small.nodes, big.nodes, small.depth, big.depth)
	}
	if small.resolve != big.resolve || small.deliver != big.deliver {
		t.Errorf("calls per wave grew with the plan: %d nodes make %d resolves + %d deliveries, %d nodes make %d + %d",
			small.nodes, small.resolve, small.deliver, big.nodes, big.resolve, big.deliver)
	}
}

// mirror returns rel with updates applied.
func mirror(rel *relation.Relation, updates relation.UpdateList) *relation.Relation {
	out := rel.Clone()
	if err := updates.Normalize().Apply(out); err != nil {
		panic(err)
	}
	return out
}

// TestSameSiteChainOneCall: with A and B both at site 0 the chain
// A, B → AB lies inside one stage of one site, so a wave resolves all
// three nodes in a single call there (B's consumer-side twin at site 1
// likewise), and V comes out right — the composed node found its
// same-call inputs buffered.
func TestSameSiteChainOneCall(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B", "C")
	scheme, err := partition.NewVerticalScheme(schema, 2, map[string][]int{"A": {0}, "B": {0}, "C": {1}})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := cfd.ParseAll(`r: ([A, B] -> [C], (_, _, _))`)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	tuple := func(id int) relation.Tuple {
		return relation.Tuple{ID: relation.TupleID(id), Values: []string{
			fmt.Sprintf("a%d", id%2), fmt.Sprintf("b%d", id%3), fmt.Sprintf("c%d", id%4)}}
	}
	for id := 1; id <= 12; id++ {
		rel.MustInsert(tuple(id))
	}
	sys, tr := tcpSystem(t, rel, scheme, rules)
	if got := sys.Plan().Stages(); slices.Max(got) != 0 || len(got) != 4 {
		t.Fatalf("fixture: stages %v, want four nodes in stage 0:\n%s", got, sys.Plan().Describe())
	}
	var wave relation.UpdateList
	for id := 13; id <= 24; id++ {
		wave = append(wave, relation.Update{Kind: relation.Insert, Tuple: tuple(id)})
	}
	for id := 1; id <= 4; id++ {
		wave = append(wave, relation.Update{Kind: relation.Delete, Tuple: tuple(id)})
	}
	tr.take()
	if _, err := sys.Apply(wave); err != nil {
		t.Fatal(err)
	}
	if got := tr.take()["v.batchResolve"]; !slices.Equal(got, []int{1, 1}) {
		t.Errorf("v.batchResolve calls per site = %v, want one each", got)
	}
	if want := centralized.Detect(mirror(rel, wave), rules); !sys.Violations().Equal(want) {
		t.Errorf("V diverged from the centralized oracle:\n got %v\nwant %v", sys.Violations(), want)
	}
	if sys.Violations().Len() == 0 {
		t.Error("fixture produced no violations")
	}
}
