package optimizer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/workload"
)

// goldenCase is one planning problem of the plan-identity table.
type goldenCase struct {
	name string
	in   Input
}

// goldenCases are the generated workloads' variable rules (constant CFDs
// ship no eqids, so the planners never see them) over round-robin
// vertical partitions, plus the paper's Example 7 with and without the
// replicated I.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, ds := range []workload.Dataset{workload.TPCH, workload.DBLP} {
		for _, nRules := range []int{10, 25, 50, 80} {
			for _, sites := range []int{2, 4, 8} {
				out = append(out, goldenCase{fmt.Sprintf("%s/%d/%d", ds, nRules, sites), workloadInput(ds, nRules, sites)})
			}
		}
	}
	return append(out,
		goldenCase{"example7/false", example7(false)},
		goldenCase{"example7/true", example7(true)})
}

// workloadInput plans the variable rules among the first nRules of the
// dataset's seed-1 rule set over a round-robin vertical partition.
func workloadInput(ds workload.Dataset, nRules, sites int) Input {
	gen := workload.New(ds, 1)
	scheme := partition.RoundRobinVertical(gen.Schema(), sites)
	in := Input{NumSites: sites, AttrSites: scheme.AttrSites}
	for _, r := range gen.Rules(nRules) {
		if !r.IsConstant() {
			in.Rules = append(in.Rules, RuleSpec{ID: r.ID, LHS: r.LHS, RHS: r.RHS})
		}
	}
	return in
}

// planDigest fingerprints everything a plan decides: nodes in id order,
// their inputs, every binding, and the edge set.
func planDigest(p *Plan) string {
	sum := sha256.Sum256([]byte(p.Describe() + strings.Join(p.Edges(), "\n")))
	return hex.EncodeToString(sum[:8])
}

// goldenPlanners are the planners the table pins, in column order.
var goldenPlanners = []struct {
	name string
	plan func(Input) (*Plan, error)
}{
	{"naive", NaiveChainPlan},
	{"opt0", func(in Input) (*Plan, error) { return Optimize(in, 0) }},
	{"opt5", func(in Input) (*Plan, error) { return Optimize(in, 5) }},
}

// goldenDigests were recorded from the string-keyed planner this package
// had before the search was compiled onto attribute ids: case → naive,
// Optimize(k=0), Optimize(k=5).
var goldenDigests = map[string][3]string{
	"tpch/10/2":      {"a1c3d446eefe1912", "60843a9b86d815d4", "60843a9b86d815d4"},
	"tpch/10/4":      {"6adc888ad00f806f", "1a17868204b54968", "1a17868204b54968"},
	"tpch/10/8":      {"66b82365cdd42d7f", "4b22f9b75100ac3e", "4b22f9b75100ac3e"},
	"tpch/25/2":      {"c4955b5f72e025fd", "35a520f8d7615372", "35a520f8d7615372"},
	"tpch/25/4":      {"c7d48df72e7aef5f", "516bb6a6dd7122e9", "516bb6a6dd7122e9"},
	"tpch/25/8":      {"3924027f5c1d7117", "fe5a5dd3c78c15f1", "fe5a5dd3c78c15f1"},
	"tpch/50/2":      {"559fc3b7bf6bc419", "fac9b21f58c71cd0", "fac9b21f58c71cd0"},
	"tpch/50/4":      {"fb18f39c49e78bb4", "4f8067cbc42f6c61", "4f8067cbc42f6c61"},
	"tpch/50/8":      {"6eff5e72ce922f37", "eafa051c56aaa3e6", "eafa051c56aaa3e6"},
	"tpch/80/2":      {"154901ee2661a39b", "ee7c266c230f10ad", "ee7c266c230f10ad"},
	"tpch/80/4":      {"91037ab6fec7ff69", "324dc4bc0deedabb", "324dc4bc0deedabb"},
	"tpch/80/8":      {"5f40b7bddf500f85", "b442120d97b8222c", "b442120d97b8222c"},
	"dblp/10/2":      {"fb3104fb1bc446c6", "cec6c8db8d0143a3", "cec6c8db8d0143a3"},
	"dblp/10/4":      {"0a5c9b194e37a641", "9a38dd4953af3535", "9a38dd4953af3535"},
	"dblp/10/8":      {"b0467ea1a116dc84", "7e57ec3e1fbe7ccb", "7e57ec3e1fbe7ccb"},
	"dblp/25/2":      {"f89580e0d307f539", "1d093a496554bef7", "1d093a496554bef7"},
	"dblp/25/4":      {"fa5c77fe8be665f3", "4005d4820354ce95", "4005d4820354ce95"},
	"dblp/25/8":      {"6deb611b53fbe9d7", "c189bb713162a4dd", "c189bb713162a4dd"},
	"dblp/50/2":      {"b02bc88a26042c4e", "00a04bac2d4ed9a3", "00a04bac2d4ed9a3"},
	"dblp/50/4":      {"8c1b8ce31bb0a10f", "50c3ca4277f04bfb", "50c3ca4277f04bfb"},
	"dblp/50/8":      {"9d25c756abd7f647", "3cf60026198ee545", "3cf60026198ee545"},
	"dblp/80/2":      {"7974aae9275c4bb2", "4755c9294eec0189", "4755c9294eec0189"},
	"dblp/80/4":      {"fe6590ddfa235ab2", "f19cbc4df9404edf", "f19cbc4df9404edf"},
	"dblp/80/8":      {"f7042cfbffd1ee72", "53cc3805e0b1d150", "53cc3805e0b1d150"},
	"example7/false": {"568bdce8634c74a0", "7ead00ebfb858d19", "7ead00ebfb858d19"},
	"example7/true":  {"11d5c2ad54f8f76e", "c4bc1a6f3fe282c7", "c4bc1a6f3fe282c7"},
}

// TestPlanIdentityGolden pins every planner's output, node ids and
// bindings included, on the workloads the sessions and Exp-5 plan.
func TestPlanIdentityGolden(t *testing.T) {
	for _, c := range goldenCases() {
		want, ok := goldenDigests[c.name]
		if !ok {
			t.Errorf("%s: no recorded digest", c.name)
			continue
		}
		for i, pl := range goldenPlanners {
			p, err := pl.plan(c.in)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, pl.name, err)
			}
			if got := planDigest(p); got != want[i] {
				t.Errorf("%s %s: plan digest %s, recorded %s (Neqid %d)\n%s", c.name, pl.name, got, want[i], p.Neqid(), p.Describe())
			}
		}
	}
}
