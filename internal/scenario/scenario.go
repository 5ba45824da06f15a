// Package scenario is the declarative catalog of named scenario families
// the conformance subsystem runs: every family describes one class of
// query+instance (a paper example, a graph motif, a skewed or
// bound-saturating construction, an adversarial FD structure), parameterized
// by size and seed, and builds validated instances on demand.
//
// The catalog is the single source of synthetic workloads: the generators
// (random FD-consistent queries, AGM product instances, graph motifs, skew)
// are defined here, and internal/oracle + cmd/conformance drive every
// catalog instance through the full engine configuration matrix against the
// naive reference (see DESIGN.md, "Conformance").
//
// Adding a family is one literal in families.go: a name, a description, the
// parameter grids for the small (CI) and full (evidence) tiers, and a
// Build(Params) function returning a query whose instance validates.
package scenario

import (
	"fmt"

	"repro/internal/query"
)

// Params parameterizes one instance of a family. Size is the family's
// natural scale knob (per-relation rows for data-driven families, the
// per-dimension domain for product constructions — each family's Desc says
// which); Seed drives the deterministic rng of randomized families and is
// ignored by deterministic ones.
type Params struct {
	Size int   `json:"size"`
	Seed int64 `json:"seed"`
}

// Tier selects how much of the catalog to run.
type Tier int

const (
	// TierSmall is the CI-sized catalog: every instance is small enough
	// that the naive oracle and the full configuration matrix finish in
	// seconds.
	TierSmall Tier = iota
	// TierFull adds the larger evidence-grade instances on top of the
	// small tier (the committed CONFORMANCE.json is a full-tier run).
	TierFull
)

// ParseTier maps a flag string to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "small":
		return TierSmall, nil
	case "full":
		return TierFull, nil
	}
	return 0, fmt.Errorf("scenario: unknown tier %q (want small|full)", s)
}

// Family is one named class of scenarios.
type Family struct {
	Name  string // catalog key, e.g. "paper/fig1-skew" or "motif/star"
	Desc  string // one line: what the instance is and what Size means
	Small []Params
	Full  []Params // run in addition to Small on TierFull
	Build func(p Params) *query.Q
}

// Instance is one buildable (family, params) pair from the catalog.
type Instance struct {
	Name   string `json:"name"` // "family@n=SIZE,seed=SEED"
	Params Params `json:"params"`
	fam    *Family
}

// Build constructs the query+instance. Every catalog instance must
// Validate; callers (and TestCatalogBuildsAndValidates) may rely on it.
func (in Instance) Build() *query.Q { return in.fam.Build(in.Params) }

// Family returns the owning family.
func (in Instance) Family() *Family { return in.fam }

// Catalog returns all scenario families, in stable order.
func Catalog() []*Family { return catalog }

// Instances enumerates the catalog at the given tier, in stable order.
func Instances(tier Tier) []Instance {
	var out []Instance
	for _, f := range catalog {
		ps := f.Small
		if tier == TierFull {
			ps = append(append([]Params(nil), f.Small...), f.Full...)
		}
		for _, p := range ps {
			out = append(out, Instance{
				Name:   fmt.Sprintf("%s@n=%d,seed=%d", f.Name, p.Size, p.Seed),
				Params: p,
				fam:    f,
			})
		}
	}
	return out
}
