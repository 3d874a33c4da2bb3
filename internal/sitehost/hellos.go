package sitehost

import (
	"fmt"
	"path/filepath"

	"repro/internal/cfd"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/relation"
)

// Checkpointing carries the driver's per-site checkpoint request into
// the bootstrap hellos. The zero value disables checkpointing.
type Checkpointing struct {
	// Dir is the root checkpoint directory; each site gets SiteDir(Dir, i).
	Dir string
	// Every is the snapshot compaction threshold in batch marks;
	// 0 means DefaultCheckpointEvery.
	Every int
}

// SiteDir returns site i's checkpoint directory under root.
func SiteDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("site%d", i))
}

// siteDir resolves the per-site checkpoint dir for hello i ("" = none).
func (ck Checkpointing) siteDir(i int) string {
	if ck.Dir == "" {
		return ""
	}
	return SiteDir(ck.Dir, i)
}

// HorizontalHellos builds the per-site bootstrap payloads for a
// horizontal deployment of n sites.
func HorizontalHellos(sid [8]byte, schema *relation.Schema, rules []cfd.CFD, n int, ck Checkpointing) ([][]byte, error) {
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		h := &Hello{
			Proto: ProtoVersion, SessionID: sid[:], Kind: KindHorizontal,
			Site: i, NumSites: n,
			SchemaName: schema.Name, SchemaAttrs: schema.Attrs,
			Rules:         rules,
			CheckpointDir: ck.siteDir(i), CheckpointEvery: ck.Every,
		}
		b, err := h.Encode()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// VerticalHellos builds the per-site bootstrap payloads for a vertical
// deployment; plan must be the plan the driver will run (see
// vertical.PlanFor).
func VerticalHellos(sid [8]byte, schema *relation.Schema, scheme *partition.VerticalScheme, plan *optimizer.Plan, rules []cfd.CFD, ck Checkpointing) ([][]byte, error) {
	out := make([][]byte, scheme.NumSites)
	for i := 0; i < scheme.NumSites; i++ {
		h := &Hello{
			Proto: ProtoVersion, SessionID: sid[:], Kind: KindVertical,
			Site: i, NumSites: scheme.NumSites,
			SchemaName: schema.Name, SchemaAttrs: schema.Attrs,
			Rules: rules, VScheme: scheme, Plan: plan,
			CheckpointDir: ck.siteDir(i), CheckpointEvery: ck.Every,
		}
		b, err := h.Encode()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
