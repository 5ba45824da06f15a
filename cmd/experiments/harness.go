package main

// The experiments' harness: timing, log-log slope fitting for exponent
// estimation, and markdown table rendering. It records nothing: performance
// numbers come from bench/.

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// timeIt runs f once and returns the wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// slope fits the least-squares slope of log2(y) against log2(x) — the
// empirical exponent of a power law y ≈ c·x^slope. It ignores non-positive
// points.
func slope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0.0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log2(xs[i]), math.Log2(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// table renders a markdown table.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

// row appends a row; cells are formatted with %v.
func (t *table) row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsInf(v, 1) {
				row[i] = "∞"
			} else {
				row[i] = fmt.Sprintf("%.3g", v)
			}
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table as markdown.
func (t *table) String() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.title)
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// pow2 returns 2^x, rendering bound exponents as sizes.
func pow2(x float64) float64 { return math.Exp2(x) }
