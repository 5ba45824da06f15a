// degreebounds reproduces Sec. 1.1 "Known Frequencies" / Eq. (2): the
// triangle query over a graph with bounded in/out-degree. Declared degree
// bounds flow into the conditional LLP (Sec. 5.3.1), dropping the size
// bound from N^{3/2} to min(N^{3/2}, N·d), and CSMA exploits them.
//
// Run: go run ./examples/degreebounds
package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/csma"
	"repro/internal/paper"
	"repro/internal/rel"
)

func main() {
	const n = 512
	fmt.Println("triangle with R out/in-degree ≤ d, |R|=|S|=|T|≈", n)
	for _, d := range []int{2, 4, 8, 16, 32} {
		q := paper.DegreeTriangle(n, d)
		nn := math.Log2(float64(q.Rels[0].Len()))
		llp := bounds.LLP(q)
		cllp := bounds.CLLPFromQuery(q)
		lv, _ := llp.LogBound.Float64()
		cv, _ := cllp.LogBound.Float64()
		var out rel.CountSink
		st, err := csma.RunInto(context.Background(), q, nil, &out)
		if err != nil {
			panic(err)
		}
		fmt.Printf("d=%2d: GLVV (no degree info) = 2^%.1f, CLLP = 2^%.1f "+
			"(min(1.5n, n+log d) = 2^%.1f), |Q| = %d, CSMA branches = %d\n",
			d, lv, cv, math.Min(1.5*nn, nn+math.Log2(float64(d))), out.N, st.Branches)
	}

	fmt.Println("\ncolored formulation (Eq. 2) — the same bound via guarded FDs:")
	for _, d := range []int{2, 4} {
		q := paper.ColoredTriangle(n/2, d)
		llp := bounds.LLP(q)
		lv, _ := llp.LogBound.Float64()
		fmt.Printf("d=%2d: GLVV(colored query) = 2^%.1f\n", d, lv)
	}
}
