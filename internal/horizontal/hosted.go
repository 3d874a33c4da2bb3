package horizontal

import (
	"repro/internal/cfd"
	"repro/internal/network"
	"repro/internal/relation"
)

// HostedSite is the handle kept on a hosted horizontal site, exposing
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

// HostSiteState builds one empty horizontal site holding rules and
// registers its handlers on c, returning a handle for checkpointing. A
// daemon and an in-process session both reach it through
// sitehost.HostSite, from a decoded hello. The driver seeds the site
// through the same-site protocol calls, and later rule changes arrive via
// h.seedRules/h.dropRules, which compile against the site's own schema.
// No driver state is shared.
func HostSiteState(c *network.Cluster, id network.SiteID, schema *relation.Schema, rules []cfd.CFD) (*HostedSite, error) {
	if err := cfd.ValidateAll(schema, rules); err != nil {
		return nil, err
	}
	st := newSite(id, schema, cfd.CompileAll(schema, rules))
	st.register(c)
	return &HostedSite{st: st}, nil
}
