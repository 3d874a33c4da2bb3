package vertical

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
)

// PlanFor returns the HEV plan NewSystem would build for rules under
// scheme and opts. The TCP deployment needs the plan before
// construction: the driver ships it to every site daemon in the
// bootstrap hello and then passes the same plan back into NewSystem via
// Options.Plan, so driver and daemons provably agree node for node.
func PlanFor(rules []cfd.CFD, scheme *partition.VerticalScheme, opts Options) (*optimizer.Plan, error) {
	return buildPlan(rules, scheme, opts)
}

// HostedSite is the handle a daemon keeps on a remotely hosted vertical
// site, exposing checkpoint capture and restore. Snapshot and Restore
// must only run between dispatches (the host serializes calls, so
// invoking them from the dispatch path is safe).
type HostedSite struct {
	st *site
}

// Snapshot serializes the site's full state for a checkpoint.
func (h *HostedSite) Snapshot() ([]byte, error) { return h.st.snapshotState() }

// Restore replaces the site's state with a checkpointed snapshot.
func (h *HostedSite) Restore(data []byte) error { return h.st.restoreState(data) }

// HostSiteState builds and registers the per-site state for one remotely
// hosted vertical site on c — the daemon half of the TCP deployment —
// returning a handle for checkpointing. Unlike in-process sites, which
// share the driver's plan object, a hosted site owns its plan copy: rule
// management grafts and drops are applied to it from the wire (see
// addRulesReq.Sub).
func HostSiteState(c *network.Cluster, id network.SiteID, schema *relation.Schema, scheme *partition.VerticalScheme, plan *optimizer.Plan, rules []cfd.CFD) (*HostedSite, error) {
	if err := cfd.ValidateAll(schema, rules); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("vertical: hosting site %d: nil plan", id)
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("vertical: hosting site %d: %w", id, err)
	}
	fs, err := scheme.FragmentSchema(schema, int(id))
	if err != nil {
		return nil, err
	}
	st, err := newSite(id, fs, plan, rules)
	if err != nil {
		return nil, err
	}
	st.ownsPlan = true
	st.register(c)
	return &HostedSite{st: st}, nil
}

// HostSite is HostSiteState without the checkpoint handle.
func HostSite(c *network.Cluster, id network.SiteID, schema *relation.Schema, scheme *partition.VerticalScheme, plan *optimizer.Plan, rules []cfd.CFD) error {
	_, err := HostSiteState(c, id, schema, scheme, plan, rules)
	return err
}
