package chaos_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/internal/seglog"
	"repro/internal/session"
	"repro/internal/workload"
)

// TestRuleRenumberingAcrossRestart: the vertical same-site calls name
// rules by their rank among the rule ids in force, a numbering driver and
// sites each derive on their own. Rule churn that moves it — a constant
// rule whose id sorts before every other, then a rule out of the middle —
// with a daemon killed and restored from its checkpoint between each rule
// change and the next batch must leave the restored site numbering like
// the driver: V equals the centralized oracle after every step, and the
// TCP deployment's meters equal an undisturbed in-process twin's. The
// restored site gets its rule set from a snapshot (compacting every mark)
// or from the hello plus the replayed v.addRules / v.dropRules calls
// (never compacting), per subtest.
func TestRuleRenumberingAcrossRestart(t *testing.T) {
	for _, every := range []int{1, 64} {
		every := every
		t.Run(fmt.Sprintf("compact_every_%d", every), func(t *testing.T) {
			t.Parallel()
			const sites = 3
			gen := workload.NewSized(workload.TPCH, 31, 700)
			pool := gen.Rules(24) // past the plain FDs: pattern constants and constant rules
			rel := gen.Relation(160)
			scheme := func() session.Option { return session.WithVertical(partition.RoundRobinVertical(rel.Schema, sites)) }
			active := append(pool[:0:0], pool[6:]...)

			loop, err := session.Open(rel, active, scheme())
			if err != nil {
				t.Fatal(err)
			}
			defer loop.Close()
			root := t.TempDir()
			srvs := startSites(t, sites, root)
			addrs := make([]string, sites)
			for i, s := range srvs {
				addrs[i] = s.addr
			}
			tcp, err := session.Open(rel, active, scheme(),
				session.WithTCPSites(addrs...),
				session.WithCheckpointDir(root),
				session.WithCheckpointEvery(every),
				session.WithTCPRetryBudget(10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer tcp.Close()

			mirror := rel.Clone()
			check := func(step string) {
				t.Helper()
				oracle := centralized.Detect(mirror, active)
				if !tcp.Violations().Equal(oracle) {
					t.Fatalf("%s: TCP session V diverged from the centralized oracle", step)
				}
				if !loop.Violations().Equal(oracle) {
					t.Fatalf("%s: loopback session V diverged from the centralized oracle", step)
				}
				ls, ts := loop.Stats(), tcp.Stats()
				if ls.Messages != ts.Messages || ls.Bytes != ts.Bytes || ls.Eqids != ts.Eqids ||
					!reflect.DeepEqual(ls.PerPair, ts.PerPair) || !reflect.DeepEqual(ls.RecvBytes, ts.RecvBytes) {
					t.Fatalf("%s: meters diverged:\nloopback: %+v\ntcp:      %+v", step, ls, ts)
				}
			}
			both := func(step string, f func(*session.Session) error) {
				t.Helper()
				for name, sess := range map[string]*session.Session{"loopback": loop, "tcp": tcp} {
					if err := f(sess); err != nil {
						t.Fatalf("%s (%s): %v", step, name, err)
					}
				}
			}
			batch := func(step string, updates relation.UpdateList) {
				t.Helper()
				both(step, func(s *session.Session) error {
					_, err := s.ApplyBatch(context.Background(), updates)
					return err
				})
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				check(step)
			}

			check("seed")
			batch("first batch", gen.Updates(mirror, 30, 0.6))

			// A constant rule every seeded tuple of one nation violates,
			// under an id that sorts first: every rule's number moves up.
			sample := mirror.Tuples()[0]
			nation, _ := rel.Schema.Index("c_nation")
			first := cfd.CFD{
				ID:  "a-sorts-first",
				LHS: []string{"c_nation"}, LHSPattern: []string{sample.Values[nation]},
				RHS: "c_region", RHSPattern: "nowhere",
			}
			ids := []string{first.ID}
			for _, r := range active {
				ids = append(ids, r.ID)
			}
			if !sort.StringsAreSorted(ids) {
				t.Fatalf("fixture: %q does not sort before the rules in force", first.ID)
			}
			both("add first-sorting rule", func(s *session.Session) error { _, err := s.AddRules(first); return err })
			active = append(active, first)
			check("add first-sorting rule")
			crashRestart(t, srvs[1], seglog.Step(1))
			batch("batch after add + restart of site 1", gen.Updates(mirror, 30, 0.5))
			sample.ID = mirror.MaxID() + 1
			batch("violating insert", relation.UpdateList{{Kind: relation.Insert, Tuple: sample}})
			if !tcp.Violations().HasRule(sample.ID, first.ID) {
				t.Fatal("insert violating the added constant rule not flagged")
			}

			// A variable rule out of the middle: the numbers above it close
			// ranks.
			at := len(active) / 2
			for at < len(active)-3 && active[at].IsConstant() {
				at++
			}
			middle := active[at]
			if middle.IsConstant() {
				t.Fatalf("fixture: no variable rule in the upper middle of %d rules", len(active))
			}
			both("remove middle rule", func(s *session.Session) error { _, err := s.RemoveRules(middle.ID); return err })
			kept := active[:0:0]
			for _, r := range active {
				if r.ID != middle.ID {
					kept = append(kept, r)
				}
			}
			active = kept
			check("remove middle rule")
			crashRestart(t, srvs[2], seglog.Step(2))
			batch("batch after remove + restart of site 2", gen.Updates(mirror, 30, 0.4))
			crashRestart(t, srvs[0], seglog.Step(3))
			batch("final batch", gen.Updates(mirror, 30, 0.6))
			if tcp.Violations().Len() == 0 {
				t.Error("fixture produced no violations")
			}
		})
	}
}
