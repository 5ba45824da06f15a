// Package benchkit provides cmd/experiments' harness utilities: timing,
// log-log slope fitting for exponent estimation, and markdown table
// rendering. It records nothing: performance numbers come from bench/.
package benchkit

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Time runs f once and returns the wall-clock duration.
func Time(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// Slope fits the least-squares slope of log2(y) against log2(x) — the
// empirical exponent of a power law y ≈ c·x^slope. It ignores non-positive
// points.
func Slope(xs, ys []float64) float64 {
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

// Table renders a markdown table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
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
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
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
	writeRow(t.Headers)
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

// Pow2 returns 2^x, rendering bound exponents as sizes.
func Pow2(x float64) float64 { return math.Exp2(x) }
