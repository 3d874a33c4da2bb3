package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/chaos"
	"repro/internal/partition"
	"repro/internal/seglog"
	"repro/internal/session"
	"repro/internal/workload"
	"repro/internal/xerr"
)

// TestDriverResumeOracle is the driver-side crash acceptance test: under
// a seeded schedule of batches, rule churn, site crash-restarts,
// partition-induced in-doubt rounds and driver "kills" (the session is
// abandoned mid-state, never Closed, exactly as a SIGKILLed process
// leaves it, then reopened over the same journal), the maintained V must
// stay bit-identical to a fresh in-process centralized detection after
// every settled step. Seeds alternate horizontal and vertical
// deployments and alternate between a zero in-doubt budget (quarantined
// rounds settle only on the next Open) and a generous one (they settle
// in process under the capped backoff).
func TestDriverResumeOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		kind := "horizontal"
		if seed%2 == 1 {
			kind = "vertical"
		}
		budget := time.Duration(0)
		if seed%4 >= 2 {
			budget = 8 * time.Second
		}
		t.Run(fmt.Sprintf("seed%d_%s_budget%v", seed, kind, budget), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*86243 + 5))
			gen := workload.NewSized(workload.TPCH, int64(seed)+1300, 700)
			pool := gen.Rules(6)
			rel := gen.Relation(100 + rng.Intn(60))
			sites := 3
			root, jdir := t.TempDir(), t.TempDir()

			inj, err := chaos.NewInjector(chaos.Faults{Seed: int64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			srvs := startSites(t, sites, root)
			addrs := make([]string, sites)
			for i, s := range srvs {
				addrs[i] = s.addr
			}
			opt := func() session.Option {
				if kind == "horizontal" {
					return session.WithHorizontal(partition.HashHorizontal("c_name", sites))
				}
				return session.WithVertical(partition.RoundRobinVertical(rel.Schema, sites))
			}
			open := func() *session.Session {
				t.Helper()
				s, err := session.Open(rel, pool[:3], opt(),
					session.WithTCPSites(addrs...),
					session.WithCheckpointDir(root),
					session.WithCheckpointEvery(2),
					session.WithJournalDir(jdir),
					session.WithJournalEvery(3),
					session.WithTCPDialer(inj.Dialer()),
					session.WithTCPRetryBudget(700*time.Millisecond),
					session.WithInDoubtRetryBudget(budget))
				if err != nil {
					t.Fatalf("seed %d: Open: %v", seed, err)
				}
				return s
			}

			sess := open()
			defer func() { sess.Close() }()
			// kill is the driver's death and restart: the session is
			// abandoned, never Closed — its journal compactor, if one is
			// running, dies at a step the schedule picks (from seed and
			// step, no rng draw) — and reopened over the same journal.
			kill := func(step int) {
				t.Helper()
				sess.Abandon(seglog.Step(1 + (seed+step)%4))
				sess = open()
			}

			mirror := rel.Clone()
			active := append(pool[:0:0], pool[:3]...)
			inForce := map[string]bool{pool[0].ID: true, pool[1].ID: true, pool[2].ID: true}
			check := func(step int, action string) {
				t.Helper()
				oracle := centralized.Detect(mirror, active)
				if !sess.Violations().Equal(oracle) {
					t.Fatalf("seed %d step %d (%s): V diverged from centralized oracle", seed, step, action)
				}
			}
			batch := func(step int, action string) {
				t.Helper()
				updates := gen.Updates(mirror, 8+rng.Intn(16), 0.5+rng.Float64()*0.4)
				if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
					t.Fatalf("seed %d step %d (%s): ApplyBatch: %v", seed, step, action, err)
				}
				if err := updates.Normalize().Apply(mirror); err != nil {
					t.Fatal(err)
				}
				check(step, action)
			}

			check(0, "initial")
			for step := 1; step <= 8; step++ {
				switch rng.Intn(7) {
				case 0, 1:
					batch(step, "batch")
				case 2: // add a not-in-force rule, if any
					var candidate *cfd.CFD
					for i := range pool {
						if !inForce[pool[i].ID] {
							candidate = &pool[i]
							break
						}
					}
					if candidate == nil {
						continue
					}
					if _, err := sess.AddRules(*candidate); err != nil {
						t.Fatalf("seed %d step %d: AddRules: %v", seed, step, err)
					}
					inForce[candidate.ID] = true
					active = append(active, *candidate)
					check(step, "add "+candidate.ID)
				case 3: // remove a random in-force rule (keep at least one)
					if len(active) <= 1 {
						continue
					}
					victim := active[rng.Intn(len(active))]
					if _, err := sess.RemoveRules(victim.ID); err != nil {
						t.Fatalf("seed %d step %d: RemoveRules: %v", seed, step, err)
					}
					delete(inForce, victim.ID)
					kept := active[:0:0]
					for _, r := range active {
						if r.ID != victim.ID {
							kept = append(kept, r)
						}
					}
					active = kept
					check(step, "remove "+victim.ID)
				case 4: // driver kill at a clean round boundary
					calls := sess.SiteCalls()
					kill(step)
					js := sess.Journal()
					if !js.Resumed || js.InDoubt {
						t.Fatalf("seed %d step %d: boundary kill resume stats = %+v", seed, step, js)
					}
					if n := sess.ReplayedCalls(); n != 0 {
						t.Fatalf("seed %d step %d: clean-boundary resume replayed %d calls, want 0", seed, step, n)
					}
					if got := sess.SiteCalls(); !reflect.DeepEqual(got, calls) {
						t.Fatalf("seed %d step %d: resume moved watermarks %v -> %v", seed, step, calls, got)
					}
					check(step, "boundary driver kill")
				case 5: // partition mid-round: quarantine, then settle
					updates := gen.Updates(mirror, 8+rng.Intn(12), 0.6)
					inj.Partition()
					if budget > 0 {
						// Heal while the in-process backoff loop is still
						// inside its budget: the round must settle here.
						before := sess.Journal().Redriven
						time.AfterFunc(1300*time.Millisecond, inj.Heal)
						if _, err := sess.ApplyBatch(context.Background(), updates); err != nil {
							t.Fatalf("seed %d step %d: in-process re-drive failed: %v", seed, step, err)
						}
						if got := sess.Journal(); got.InDoubt || got.Redriven <= before {
							t.Fatalf("seed %d step %d: stats after in-process re-drive = %+v", seed, step, got)
						}
					} else {
						// Zero budget: the round quarantines, the driver
						// "dies" with it dangling, and the next Open
						// re-drives the journaled intent.
						_, err := sess.ApplyBatch(context.Background(), updates)
						if !errors.Is(err, xerr.ErrBatchInDoubt) || !errors.Is(err, xerr.ErrSiteDown) {
							t.Fatalf("seed %d step %d: partitioned round: got %v, want ErrBatchInDoubt", seed, step, err)
						}
						if js := sess.Journal(); !js.InDoubt {
							t.Fatalf("seed %d step %d: stats after quarantine = %+v", seed, step, js)
						}
						inj.Heal()
						kill(step)
						js := sess.Journal()
						if !js.Resumed || js.InDoubt || js.Redriven == 0 {
							t.Fatalf("seed %d step %d: mid-round kill resume stats = %+v", seed, step, js)
						}
					}
					if err := updates.Normalize().Apply(mirror); err != nil {
						t.Fatal(err)
					}
					check(step, "mid-round driver kill")
				case 6: // crash a daemon at a batch boundary, restart warm
					victim := rng.Intn(sites)
					crashRestart(t, srvs[victim], seglog.Step(1+(seed+step)%4))
					batch(step, fmt.Sprintf("crash-restart site %d", victim))
				}
			}
			// One final boundary kill: whatever the schedule did, the
			// journal must bring it all back.
			kill(9)
			js := sess.Journal()
			if !js.Resumed || js.InDoubt {
				t.Fatalf("seed %d: final resume stats = %+v", seed, js)
			}
			check(9, "final resume")
		})
	}
}
