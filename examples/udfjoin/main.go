// udfjoin reproduces the paper's motivating example (Eq. 1, Sec. 1.1):
//
//	Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u), u = f(x,z), x = g(y,u)
//
// Computing R ⋈ S ⋈ T first and filtering afterwards costs Θ(N²) on the
// skew instance; the UDFs' functional dependencies drop the GLVV bound to
// N^{3/2}, and the Chain Algorithm meets it.
//
// Run: go run ./examples/udfjoin
package main

import (
	"context"
	"fmt"

	"repro/internal/chainalg"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/wcoj"
)

func main() {
	for _, n := range []int{128, 256, 512} {
		q := paper.Fig1Skew(n)
		a := core.Analyze(q)
		fmt.Printf("N = %4d: AGM = N^%.2f, GLVV = N^%.2f, chain bound = N^%.2f\n",
			n, a.LogAGM/log2(n), a.LogLLP/log2(n), a.LogChain/log2(n))

		var out rel.CountSink
		chainStats, err := chainalg.RunBestInto(context.Background(), q, &out)
		if err != nil {
			panic(err)
		}
		gjStats, err := wcoj.GenericJoinInto(context.Background(), q, []int{1, 2, 0, 3}, &rel.CountSink{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("          |Q| = %d;  chain work = %d;  FD-blind generic-join work = %d  (%.1f×)\n",
			out.N, chainStats.TuplesVisited+chainStats.Probes,
			gjStats.Extensions+gjStats.Lookups,
			float64(gjStats.Extensions+gjStats.Lookups)/float64(chainStats.TuplesVisited+chainStats.Probes))
	}
}

func log2(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}
