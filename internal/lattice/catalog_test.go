package lattice_test

import (
	"slices"
	"testing"

	"repro/internal/lattice"
	"repro/internal/paper"
	"repro/internal/scenario"
	"repro/internal/varset"
)

// Every catalog shape's lattice, and the paper's abstract lattices realized
// as closure families, satisfy the definitions of order, meet, join and
// covers.
func TestDefinitionsCatalogAndFamilies(t *testing.T) {
	for _, f := range scenario.Catalog() {
		for _, p := range slices.Concat(f.Small, f.Full) {
			lattice.CheckDefinitions(t, f.Build(p).Lattice())
		}
	}
	for name, l := range map[string]*lattice.Lattice{
		"N5": lattice.FromFamily(3, []varset.Set{
			varset.Empty, varset.Of(0), varset.Of(0, 1), varset.Of(2), varset.Of(0, 1, 2),
		}),
		"M3": lattice.FromFamily(3, []varset.Set{
			varset.Empty, varset.Of(0), varset.Of(1), varset.Of(2), varset.Of(0, 1, 2),
		}),
		"Fig7": lattice.FromFamily(6, paper.Fig7Family()),
		"Fig9": lattice.FromFamily(9, paper.Fig9Family()),
	} {
		t.Run(name, func(t *testing.T) { lattice.CheckDefinitions(t, l) })
	}
}
