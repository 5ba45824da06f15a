package main

import (
	"math"
	"slices"
	"testing"
)

// Every experiment runs to completion: must exits the test binary with
// status 1 on any executor or planner error, which go test reports as a
// failure of this package.
func TestExperimentsRunToCompletion(t *testing.T) {
	if len(order) != len(experiments) {
		t.Fatalf("default run lists %d experiments, %d are registered", len(order), len(experiments))
	}
	for _, name := range order {
		experiments[name]() // a name that is not registered is a nil call: the test panics
	}
}

// The exponents the command fits come from deterministic counts — executor
// work counters for E1, output sizes for E5 and E6 — not from wall clocks,
// so the paper's scaling claims are gated exactly. The comparisons are
// written !(x <= y) so that a NaN fit (slope on degenerate input)
// fails them.
func TestFittedExponentsMatchThePaper(t *testing.T) {
	// Example 5.8: on the skew instance the chain algorithm is Õ(N^{3/2})
	// where FD-blind generic join is Ω(N²).
	chain, generic := e1()
	if !(chain <= 1.5) {
		t.Errorf("E1 chain work exponent %.3f, paper: ≤ 1.5", chain)
	}
	if !(generic >= 1.9) {
		t.Errorf("E1 generic-join work exponent %.3f, paper: 2 (want ≥ 1.9)", generic)
	}
	// Examples 5.18/5.20: the Fig. 4 output grows as N^{4/3}, the SM bound.
	if got := e5(); !(math.Abs(got-4.0/3) <= 0.02) {
		t.Errorf("E5 output exponent %.3f, paper: 4/3", got)
	}
	// Example 5.31: the Fig. 9 output grows as N^{3/2}, the CSMA bound.
	if got := e6(); !(math.Abs(got-1.5) <= 0.02) {
		t.Errorf("E6 output exponent %.3f, paper: 3/2", got)
	}
}

// E14 is a table, not a claim: it has a row per family and size, and the
// best of all orders is at most what any one order — identity, greedy —
// costs.
func TestOrderTableIsProduced(t *testing.T) {
	rows := e14()
	if len(rows) != 18 {
		t.Fatalf("E14 has %d rows, want 9 families × 2 sizes", len(rows))
	}
	for _, w := range rows {
		if w.best <= 0 || w.best > w.identity || w.best > w.greedy {
			t.Errorf("%s: best of all orders %d, identity %d, greedy %d", w.instance, w.best, w.identity, w.greedy)
		}
	}
}

// E15 gates the attempt's factor of 8: generic join overruns it on
// Example 5.8's skew instance from size 256 on, where it is Ω(N²), and fits
// it on every other FD-planned instance.
func TestAttemptFactorSeparatesTheSkewInstance(t *testing.T) {
	rows := e15()
	skew := 0
	for _, r := range rows {
		if r.skew >= 256 {
			skew++
		}
		if want := r.skew < 256; r.fits != want {
			t.Errorf("%s: fits %v, want %v", r.instance, r.fits, want)
		}
	}
	if skew < 4 {
		t.Fatalf("E15 has %d skew rows at size ≥ 256 in %d rows: the gate lost its overruns", skew, len(rows))
	}
}

// E9 carries the Fig. 1 bounds at N=16 — AGM and AGM(Q⁺) 2n, chain and LLP
// 1.5n with n = 4 — and Fig. 7 as a structure-only row: |L| = 10, not
// distributive, no instance to bound.
func TestLatticeTableBoundsAndFig7(t *testing.T) {
	rows := map[string][]string{}
	for _, r := range e9().rows {
		rows[r[0]] = r
	}
	want := map[string][]string{
		"Fig.1 running example":  {"Fig.1 running example", "12", "false", "false", "true", "false", "true", "8", "8", "6", "6"},
		"Fig.7 (structure only)": {"Fig.7 (structure only)", "10", "false", "false", "-", "false", "-", "-", "-", "-", "-"},
	}
	for name, w := range want {
		if got := rows[name]; !slices.Equal(got, w) {
			t.Errorf("E9 row %q = %q, want %q", name, got, w)
		}
	}
}
