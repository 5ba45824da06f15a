package core

import (
	"math"
	"testing"

	"repro/internal/paper"
)

func TestAnalyzeFig1(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	a := Analyze(q)
	n := math.Log2(16)
	if a.LatticeSize != 12 || a.Distributive || !a.Normal {
		t.Fatalf("Fig1 classification wrong: %+v", a)
	}
	if math.Abs(a.LogLLP-1.5*n) > 1e-6 || math.Abs(a.LogChain-1.5*n) > 1e-6 {
		t.Fatalf("Fig1 bounds wrong: LLP %v chain %v", a.LogLLP, a.LogChain)
	}
	if math.Abs(a.LogAGM-2*n) > 1e-6 {
		t.Fatalf("Fig1 AGM %v, want %v", a.LogAGM, 2*n)
	}
	if !a.SMProofExists {
		t.Fatal("Fig1 should have a good SM proof")
	}
}

func TestAnalyzeM3(t *testing.T) {
	q := paper.M3Instance(8)
	a := Analyze(q)
	if a.Normal || !a.HasM3Top || a.Distributive || !a.Modular {
		t.Fatalf("M3 classification wrong: %+v", a)
	}
	n := math.Log2(8)
	if math.Abs(a.LogLLP-2*n) > 1e-6 {
		t.Fatalf("M3 LLP %v, want %v", a.LogLLP, 2*n)
	}
	if math.Abs(a.LogCoatomic-1.5*n) > 1e-6 {
		t.Fatalf("M3 coatomic %v, want %v", a.LogCoatomic, 1.5*n)
	}
}

func TestAnalyzeFig9(t *testing.T) {
	q, _ := paper.Fig9Instance(4)
	a := Analyze(q)
	if a.SMProofExists {
		t.Fatal("Fig9 must have no good SM proof (Example 5.31)")
	}
	if !a.Normal {
		t.Fatal("Fig9 lattice is normal")
	}
}
