// Command experiments regenerates every experiment table of the
// reproduction (E1–E15 in DESIGN.md / EXPERIMENTS.md), printing paper
// expectation vs. measured value for each bound, classification, and
// algorithm-scaling claim in the paper.
//
// Usage:
//
//	experiments [E1 E2 ...]   # default: all
package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/varset"
	"repro/internal/wcoj"
)

// experiments maps a name to its experiment, order is the default run.
// E1, E5 and E6 return the exponents they fit so that main_test.go can gate
// them against the paper's claims; the command only prints them.
var (
	experiments = map[string]func(){
		"E1": func() { e1() }, "E2": e2, "E3": e3, "E4": e4,
		"E5": func() { e5() }, "E6": func() { e6() },
		"E7": e7, "E8": e8, "E9": func() { e9() }, "E10": e10, "E11": e11, "E12": e12,
		"E13": e13, "E14": func() { e14() }, "E15": func() { e15() },
	}
	order = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = order
	}
	for _, a := range args {
		f, ok := experiments[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
			os.Exit(1)
		}
		f()
	}
}

var ctx = context.Background()

func logb(x float64) float64 { return math.Log2(x) }

// E1: Eq. (1) / Fig. 1 / Examples 5.5 & 5.8 — UDF query: chain algorithm is
// Õ(N^{3/2}) while FD-blind WCOJ is Ω(N²) on the skew instance. Returns the
// two work exponents fitted over N.
func e1() (chainExp, genericExp float64) {
	t := newTable("E1 — Fig.1 UDF query: bounds (log2, units of n = log N)",
		"N", "AGM", "AGM(Q⁺)", "GLVV/LLP", "best chain", "|Q| measured")
	for _, N := range []int{64, 256} {
		q := paper.Fig1QuasiProduct(N)
		a := engine.Analyze(q)
		n := logb(float64(q.Rels[0].Len()))
		out := naive.Evaluate(q)
		t.row(q.Rels[0].Len(), a.LogAGM/n, a.LogAGMClosure/n, a.LogLLP/n, a.LogChain/n, out.Len())
	}
	fmt.Println(t)

	t2 := newTable("E1 — skew instance work (Example 5.8): chain vs FD-blind generic join",
		"N", "chain work", "generic-join work", "chain time", "generic time")
	var ns, chainWork, gjWork []float64
	for _, N := range []int{128, 256, 512, 1024} {
		q := paper.Fig1Skew(N)
		var cw, gw int
		var cd, gd time.Duration
		cd = timeIt(func() {
			st, err := chainalg.RunInto(ctx, q, nil, &rel.CountSink{})
			must(err)
			cw = st.TuplesVisited + st.Probes
		})
		gd = timeIt(func() {
			st, err := wcoj.GenericJoinInto(ctx, q, []int{1, 2, 0, 3}, &rel.CountSink{})
			must(err)
			gw = st.Extensions + st.Lookups
		})
		ns = append(ns, float64(N))
		chainWork = append(chainWork, float64(cw))
		gjWork = append(gjWork, float64(gw))
		t2.row(N, cw, gw, cd, gd)
	}
	fmt.Println(t2)
	chainExp, genericExp = slope(ns, chainWork), slope(ns, gjWork)
	fmt.Printf("empirical exponents (paper: chain ≤ 1.5 via Õ(N^1.5); generic 2.0 via Ω(N²)): chain %.2f, generic %.2f\n\n",
		chainExp, genericExp)
	return chainExp, genericExp
}

// E2: Eq. (2) / Sec. 5.3 — degree-bounded triangle: CLLP bound
// min(N^{3/2}, N·d) and CSMA respecting it.
func e2() {
	t := newTable("E2 — degree-bounded triangle (Eq. 2): bound min(N^{3/2}, N·d)",
		"N≈", "d", "LLP (no degrees)", "CLLP (degrees)", "min(1.5n, n+log d)", "|Q|", "CSMA time")
	for _, d := range []int{2, 4, 8, 16, 32} {
		q := paper.DegreeTriangle(512, d)
		n := logb(float64(q.Rels[0].Len()))
		llp := bounds.LLP(q)
		cllp := bounds.CLLPFromQuery(q)
		lv, _ := llp.LogBound.Float64()
		cv, _ := cllp.LogBound.Float64()
		want := math.Min(1.5*n, n+logb(float64(d)))
		var out rel.CountSink
		dur := timeIt(func() {
			_, err := csma.RunInto(ctx, q, nil, &out)
			must(err)
		})
		t.row(q.Rels[0].Len(), d, lv, cv, want, out.N, dur)
	}
	fmt.Println(t)

	t2 := newTable("E2b — colored formulation (Eq. 2 with colors C1, C2)",
		"N≈", "d", "GLVV (colored)", "n + log d", "|Q| (x,y,z proj)")
	for _, d := range []int{2, 4} {
		q := paper.ColoredTriangle(256, d)
		llp := bounds.LLP(q)
		lv, _ := llp.LogBound.Float64()
		n := logb(float64(q.Rels[2].Len()))
		out := naive.Evaluate(q).Project(q.Vars("x", "y", "z"))
		t2.row(q.Rels[2].Len(), d, lv, n+logb(float64(d)), out.Len())
	}
	fmt.Println(t2)
}

// E3: Eq. (4) / Theorem 2.1 — AGM bound tight on product instances;
// Generic-Join is worst-case optimal without FDs.
func e3() {
	t := newTable("E3 — triangle AGM bound (Eq. 4) and tightness on product instances",
		"m (domain)", "N=m²", "AGM = N^{3/2}", "|Q| = m³", "generic-join time")
	for _, m := range []int{4, 8, 16} {
		q := paper.TriangleProduct(m)
		a := bounds.AGM(q)
		var out rel.CountSink
		dur := timeIt(func() {
			_, err := wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), &out)
			must(err)
		})
		t.row(m, m*m, a.Bound(), out.N, dur)
	}
	fmt.Println(t)
}

// E4: Example 5.12 / Fig. 3 — M3: chain bound N² tight; coatomic cover
// bound N^{3/2} invalid (non-normal lattice).
func e4() {
	t := newTable("E4 — M3 (Example 5.12): N² is tight; co-atomic N^{3/2} is NOT a bound",
		"N", "GLVV/LLP", "chain", "coatomic (invalid)", "|Q| = N²", "chain-alg time")
	for _, N := range []int{8, 16, 32} {
		q := paper.M3Instance(N)
		a := engine.Analyze(q)
		var out rel.CountSink
		dur := timeIt(func() {
			_, err := chainalg.RunInto(ctx, q, nil, &out)
			must(err)
		})
		t.row(N, pow2(a.LogLLP), pow2(a.LogChain), pow2(a.LogCoatomic), out.N, dur)
	}
	fmt.Println(t)
}

// E5: Fig. 4 / Examples 5.18, 5.20, 5.25 — chain bound N^{3/2} beaten by
// SM bound N^{4/3}; SMA runs within it. Returns the output exponent fitted
// over N.
func e5() float64 {
	t := newTable("E5 — Fig.4 query: chain N^{3/2} vs SM/GLVV N^{4/3} (Examples 5.18/5.20)",
		"N=m³", "chain bound", "GLVV=SM bound", "|Q| = m⁴", "SMA time", "chain-alg time")
	var ns, smWork []float64
	for _, m := range []int{3, 4, 5} {
		q, mm := paper.Fig4Instance(m * m * m)
		a := engine.Analyze(q)
		var out rel.CountSink
		smDur := timeIt(func() {
			_, err := smalg.RunInto(ctx, q, nil, nil, &out)
			must(err)
		})
		chDur := timeIt(func() {
			_, err := chainalg.RunInto(ctx, q, nil, &rel.CountSink{})
			must(err)
		})
		N := float64(q.Rels[0].Len())
		ns = append(ns, N)
		smWork = append(smWork, float64(out.N))
		t.row(q.Rels[0].Len(), pow2(a.LogChain), pow2(a.LogLLP), out.N, smDur, chDur)
		_ = mm
	}
	fmt.Println(t)
	exp := slope(ns, smWork)
	fmt.Printf("output exponent vs N (paper: 4/3 ≈ 1.33): %.2f\n\n", exp)
	return exp
}

// E6: Fig. 9 / Example 5.31 — no SM proof exists; CSMA computes the query
// within ~N^{3/2}. Returns the output exponent fitted over N.
func e6() float64 {
	{
		q, _ := paper.Fig9Instance(4)
		llp := bounds.LLP(q)
		p := smalg.FindProof(llp)
		pDual := smalg.FindProofAuto(q, llp)
		fmt.Printf("E6 — Fig.9: SM proof exists (paper: NO): direct=%v explicit-dual=%v\n\n", p != nil, pDual != nil)
	}
	t := newTable("E6 — Fig.9 query via CSMA (Example 5.31 continued)",
		"N per input", "OPT = N^{3/2}", "|Q|", "CSMA time", "branches", "restarts")
	var ns, outs []float64
	for _, n := range []int{16, 36, 64} {
		q, _ := paper.Fig9Instance(n)
		var out rel.CountSink
		var st *csma.Stats
		dur := timeIt(func() {
			var err error
			st, err = csma.RunInto(ctx, q, nil, &out)
			must(err)
		})
		ns = append(ns, float64(q.Rels[0].Len()))
		outs = append(outs, float64(out.N))
		t.row(q.Rels[0].Len(), pow2(st.OPT), out.N, dur, st.Branches, st.Restarts)
	}
	fmt.Println(t)
	exp := slope(ns, outs)
	fmt.Printf("output exponent vs N (paper: 3/2): %.2f\n\n", exp)
	return exp
}

// E7: Fig. 5 / Example 5.10 — maximal chains have isolated vertices; the
// Corollary 5.9 chain 0̂ ≺ x ≺ 1̂ gives the tight N².
func e7() {
	q := paper.Fig5Instance(32)
	l := q.Lattice()
	mc := lattice.Chain{l.Bottom, l.Index(q.Vars("z")), l.Index(q.Vars("x", "z")), l.Top}
	r1 := bounds.ChainBound(q, mc)
	best := bounds.BestChainBound(q, 64)
	var out rel.CountSink
	_, err := chainalg.RunInto(ctx, q, nil, &out)
	must(err)
	t := newTable("E7 — Fig.5: R(x), S(y), z=f(x,y) (Example 5.10)",
		"chain", "bound", "|Q|")
	t.row("0̂≺z≺xz≺1̂ (maximal)", r1.Bound(), "-")
	t.row(fmt.Sprintf("Cor 5.9 chain (len %d)", len(best.Chain)), best.Bound(), out.N)
	fmt.Println(t)
}

// E8: Sec. 2 "Closure" — simple keys are handled by AGM(Q⁺); composite keys
// are not.
func e8() {
	t := newTable("E8 — closure bounds (Sec. 2)",
		"query", "AGM", "AGM(Q⁺)", "GLVV/LLP", "|Q|")
	{
		q := paper.FourCycleWithKey(16)
		for i := 0; i < 240; i++ {
			q.Rels[1].Add(paper.Value(1000+i), paper.Value(1000+i))
			q.Rels[2].Add(paper.Value(1000+i), paper.Value(1000+i))
		}
		a := engine.Analyze(q)
		t.row("4-cycle, key y→z", pow2(a.LogAGM), pow2(a.LogAGMClosure),
			pow2(a.LogLLP), naive.Evaluate(q).Len())
	}
	{
		q := paper.CompositeKey(8, 4096)
		a := engine.Analyze(q)
		t.row("R(x),S(y),T(x,y,z), key xy→z", pow2(a.LogAGM), pow2(a.LogAGMClosure),
			pow2(a.LogLLP), naive.Evaluate(q).Len())
	}
	fmt.Println(t)
}

// E9: Fig. 10 — lattice classification of every named lattice in the paper,
// with its bounds in log2. Returns the table so main_test.go can read it.
func e9() *table {
	t := newTable("E9 — lattice classification (Fig. 10 regions) and bounds (log2)",
		"lattice", "|L|", "distributive", "modular", "normal", "M3-top", "good SM proof",
		"AGM", "AGM(Q⁺)", "chain", "GLVV/LLP")
	row := func(name string, q *query.Q) {
		a := engine.Analyze(q)
		t.row(name, a.LatticeSize, a.Distributive, a.Modular, a.Normal, a.HasM3Top, a.SMProofExists,
			a.LogAGM, a.LogAGMClosure, a.LogChain, a.LogLLP)
	}
	row("Boolean (triangle)", paper.TriangleProduct(3))
	row("Fig.1 running example", paper.Fig1QuasiProduct(16))
	row("M3 (Fig.3)", paper.M3Instance(8))
	q4, _ := paper.Fig4Instance(27)
	row("Fig.4", q4)
	row("Fig.5 (z=f(x,y))", paper.Fig5Instance(8))
	q9, _ := paper.Fig9Instance(16)
	row("Fig.9", q9)
	row("simple FDs (chain)", paper.SimpleFDChain(4, 16))
	// N5 (normal, per the paper) and Fig. 7 (Example 5.29: a non-good SM
	// proof) as standalone lattices, without instances: structure only.
	structure := func(name string, l *lattice.Lattice) {
		t.row(name, l.Size(), l.IsDistributive(), l.IsModular(), "-", l.HasM3Top(), "-", "-", "-", "-", "-")
	}
	structure("N5 (structure only)",
		lattice.FromFamily(3, []varset.Set{varset.Empty, varset.Of(0), varset.Of(0, 1), varset.Of(2), varset.Of(0, 1, 2)}))
	structure("Fig.7 (structure only)", lattice.FromFamily(6, paper.Fig7Family()))
	fmt.Println(t)
	return t
}

// E10: Fig. 1 labels / Lemma 3.9 — LLP primal/dual values of the running
// example.
func e10() {
	q := paper.Fig1QuasiProduct(256)
	llp := bounds.LLP(q)
	n := logb(256)
	t := newTable("E10 — Fig.1 optimal polymatroid h* (units of n; figure labels)",
		"element", "h*/n")
	for i, e := range llp.Lat.Elems {
		v, _ := llp.H[i].Float64()
		t.row(e.Format(q.Names), v/n)
	}
	fmt.Println(t)
	t2 := newTable("E10b — dual weights (output inequality coefficients)",
		"relation", "w*")
	for j, w := range llp.W {
		t2.row(q.Rels[j].Name, w.RatString())
	}
	fmt.Println(t2)
}

// E11: Examples 3.8 / 4.6 / Lemma 4.5 — quasi-product instances materialize
// normal polymatroids.
func e11() {
	t := newTable("E11 — quasi-product materialization (Lemma 4.5)",
		"N", "GLVV bound", "|Q| on quasi-product instance", "ratio")
	for _, N := range []int{16, 64, 256} {
		q := paper.Fig1QuasiProduct(N)
		a := engine.Analyze(q)
		out := naive.Evaluate(q).Len()
		t.row(q.Rels[0].Len(), pow2(a.LogLLP), out, float64(out)/pow2(a.LogLLP))
	}
	fmt.Println(t)
}

// E12: Prop. 3.2 / Cor. 5.15/5.17 — simple FDs: distributive lattice, chain
// bound tight, chain algorithm worst-case optimal.
func e12() {
	t := newTable("E12 — simple FDs (Cor. 5.17)",
		"k vars", "N", "distributive", "LLP", "chain bound", "|Q|", "chain-alg time")
	for _, k := range []int{3, 4, 5} {
		q := paper.SimpleFDChain(k, 64)
		a := engine.Analyze(q)
		var out rel.CountSink
		dur := timeIt(func() {
			_, err := chainalg.RunInto(ctx, q, nil, &out)
			must(err)
		})
		t.row(k, 64, a.Distributive, pow2(a.LogLLP), pow2(a.LogChain), out.N, dur)
	}
	fmt.Println(t)
}

// E13: engine layer — the cost-based planner's choice per workload. (How
// parallel execution compares with sequential is wall-clock on real cores
// and belongs to the benchmark: engine.seq_ms / par_ms / par_speedup.)
func e13() {
	t := newTable("E13 — engine planner decisions (decision table in DESIGN.md)",
		"workload", "plan", "predicted log2 bound", "|Q|")
	prow := func(name string, q *query.Q) {
		p, err := engine.Prepare(q)
		must(err)
		b, err := p.Bind(nil)
		must(err)
		out, _, err := b.Run(ctx, &engine.Options{Workers: 1})
		must(err)
		pl := b.Plan()
		t.row(name, string(pl.Algorithm), pl.LogBound, out.Len())
	}
	prow("Fig.1 N=64 (simple-ish FDs)", paper.Fig1QuasiProduct(64))
	prow("Fig.4 N=125 (SM beats chain)", mustQ(paper.Fig4Instance(125)))
	prow("Fig.9 N=64 (no SM proof)", mustQ(paper.Fig9Instance(64)))
	prow("degree triangle d=2", paper.DegreeTriangle(512, 2))
	prow("triangle product m=16 (no FDs)", paper.TriangleProduct(16))
	fmt.Println(t)
}

// orderWork is one row of E14: generic join's Extensions on one instance
// under the identity order, the greedy order and the best of all K! orders.
type orderWork struct {
	instance               string
	identity, greedy, best int
}

// E14: ROADMAP 8(a), step 0 — what choosing the variable order could buy
// generic join on the FD-free families, counted in Extensions (deterministic,
// and what E1 fits its exponent from). Greedy binds the variable with the
// fewest distinct values first (the smallest column over the relations that
// hold it), most relations on a tie, lowest id after that.
func e14() []orderWork {
	t := newTable("E14 — generic join Extensions by variable order (ROADMAP 8(a): is identity within 1.2× of best?)",
		"instance", "identity", "greedy", "greedy order", "best", "best order", "identity÷best", "greedy÷best")
	var rows []orderWork
	for _, f := range scenario.Catalog() {
		if !strings.HasPrefix(f.Name, "motif/") && !strings.HasPrefix(f.Name, "skew/") && !strings.HasPrefix(f.Name, "worst/") {
			continue
		}
		for _, size := range []int{64, 256} {
			q := f.Build(scenario.Params{Size: size, Seed: 1})
			work := func(order []int) int {
				st, err := wcoj.GenericJoinInto(ctx, q, order, &rel.CountSink{})
				must(err)
				return st.Extensions
			}
			greedy := greedyVarOrder(q)
			w := orderWork{instance: fmt.Sprintf("%s@%d", f.Name, size),
				identity: work(wcoj.DefaultOrder(q)), greedy: work(greedy), best: math.MaxInt}
			var bestOrder []int
			eachOrder(q.K, func(order []int) {
				if n := work(order); n < w.best {
					w.best, bestOrder = n, slices.Clone(order)
				}
			})
			t.row(w.instance, w.identity, w.greedy, fmt.Sprint(greedy), w.best, fmt.Sprint(bestOrder),
				float64(w.identity)/float64(w.best), float64(w.greedy)/float64(w.best))
			rows = append(rows, w)
		}
	}
	fmt.Println(t)
	return rows
}

// attemptRow is one row of E15; skew is the size of Example 5.8's instance.
type attemptRow struct {
	instance string
	skew     int
	fits     bool
}

// E15: the evidence for the engine's budget of 8·(N + 2^LogBound) counted work
// (Extensions + Lookups) on a sequential FD plan's first generic-join attempt,
// on every FD-planned full-tier instance and the skew instance, and its verdict.
func e15() (rows []attemptRow) {
	t := newTable("E15 — generic-join work ÷ (N + 2^LogBound) on FD plans, and the attempt's verdict at 8×",
		"instance", "plan", "N", "log2 bound", "generic work", "ratio", "verdict")
	row := func(name string, skew int, q *query.Q) {
		p, err := engine.Prepare(q)
		must(err)
		b, err := p.Bind(nil)
		must(err)
		if pl := b.Plan(); pl.Algorithm == engine.AlgChain || pl.Algorithm == engine.AlgSM || pl.Algorithm == engine.AlgCSMA {
			ws, err := wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), &rel.CountSink{})
			must(err)
			st, err := b.RunInto(ctx, &engine.Options{Workers: 1}, &rel.CountSink{})
			must(err)
			rows = append(rows, attemptRow{name, skew, st.Ran == engine.AlgGenericJoin})
			work := ws.Extensions + ws.Lookups
			t.row(name, string(pl.Algorithm), q.TotalSize(), pl.LogBound, work,
				float64(work)/(float64(q.TotalSize())+math.Exp2(pl.LogBound)), map[bool]string{true: "fits", false: "overruns"}[rows[len(rows)-1].fits])
		}
	}
	for _, in := range scenario.Instances(scenario.TierFull) {
		row(in.Name, map[bool]int{true: in.Params.Size}[in.Family().Name == "paper/fig1-skew"], in.Build())
	}
	for n := 64; n <= 2048; n *= 2 {
		row(fmt.Sprintf("Fig1Skew(%d)", n), n, paper.Fig1Skew(n))
	}
	fmt.Println(t)
	return rows
}

// greedyVarOrder is E14's greedy order.
func greedyVarOrder(q *query.Q) []int {
	distinct, holders := make([]int, q.K), make([]int, q.K)
	for v := range distinct {
		distinct[v] = math.MaxInt
		for _, r := range q.Rels {
			if r.Col(v) >= 0 {
				distinct[v] = min(distinct[v], len(r.IndexOn(v).Trie().LevelVals(0)))
				holders[v]++
			}
		}
	}
	order := make([]int, q.K)
	for v := range order {
		order[v] = v
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(distinct[a], distinct[b]), cmp.Compare(holders[b], holders[a]))
	})
	return order
}

// eachOrder calls f with every permutation of 0..k-1, in lexicographic order.
func eachOrder(k int, f func(order []int)) {
	var rec func(prefix []int, used uint)
	rec = func(prefix []int, used uint) {
		if len(prefix) == k {
			f(prefix)
			return
		}
		for v := 0; v < k; v++ {
			if used&(1<<v) == 0 {
				rec(append(prefix, v), used|1<<v)
			}
		}
	}
	rec(make([]int, 0, k), 0)
}

func mustQ[T any](q *query.Q, _ T) *query.Q { return q }

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
