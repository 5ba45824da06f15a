package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSlope(t *testing.T) {
	// y = x² → slope 2.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	if s := slope(xs, ys); math.Abs(s-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", s)
	}
	// y = x^{3/2}.
	ys2 := make([]float64, len(xs))
	for i, x := range xs {
		ys2[i] = math.Pow(x, 1.5)
	}
	if s := slope(xs, ys2); math.Abs(s-1.5) > 1e-9 {
		t.Fatalf("slope = %v, want 1.5", s)
	}
}

func TestSlopeDegenerate(t *testing.T) {
	if !math.IsNaN(slope([]float64{1}, []float64{1})) {
		t.Fatal("single point slope should be NaN")
	}
	if !math.IsNaN(slope([]float64{0, -1}, []float64{1, 1})) {
		t.Fatal("non-positive points must be ignored")
	}
}

func TestTable(t *testing.T) {
	tb := newTable("demo", "a", "b")
	tb.row(1, 2.5)
	tb.row("x", math.Inf(1))
	tb.row(time.Millisecond, "z")
	s := tb.String()
	if !strings.Contains(s, "### demo") || !strings.Contains(s, "∞") || !strings.Contains(s, "1ms") {
		t.Fatalf("table rendering wrong:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 7 { // title, blank, header, separator, 3 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestTime(t *testing.T) {
	d := timeIt(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Fatalf("timeIt too short: %v", d)
	}
}

func TestPow2(t *testing.T) {
	if pow2(3) != 8 {
		t.Fatal("pow2 wrong")
	}
}
