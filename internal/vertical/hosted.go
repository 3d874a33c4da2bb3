package vertical

import (
	"fmt"

	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
)

// HostedSite is the handle kept on a hosted vertical site, exposing
// checkpoint capture and restore. Snapshot and Restore must only run
// between dispatches (the host serializes calls, so invoking them from
// the dispatch path is safe).
type HostedSite struct {
	st *site
}

// Snapshot serializes the site's full state for a checkpoint.
func (h *HostedSite) Snapshot() ([]byte, error) { return h.st.snapshotState() }

// Restore replaces the site's state with a checkpointed snapshot.
func (h *HostedSite) Restore(data []byte) error { return h.st.restoreState(data) }

// HostSiteState builds one empty vertical site over plan and rules and
// registers its handlers on c, returning a handle for checkpointing. A
// daemon and an in-process session both reach it through
// sitehost.HostSite, from a decoded hello. The site owns plan — a copy
// no driver or other site shares — and rule changes graft onto it and
// drop from it from the wire (see addRulesReq.Sub).
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
	st.register(c)
	return &HostedSite{st: st}, nil
}
