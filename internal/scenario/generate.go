// Instance generators: the synthetic constructions the catalog families are
// built from — AGM product instances, random FD-consistent and simple-key
// queries for differential fuzzing, graph motifs, Zipf skew, near-product
// noise, guarded FD DAGs and cycles.
package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Value aliases the relational value type.
type Value = rel.Value

// ProductInstance replaces every relation of q (which must have no FDs)
// with the product instance of Theorem 2.1 part 2: solve the fractional
// vertex packing with the current log sizes, give variable x_i a domain of
// ⌈2^{v_i}⌉ values, and set R_j = Π_{x_i ∈ R_j} Domain(x_i). The output of
// the new instance is Π_i 2^{v_i} ≈ the AGM bound.
func ProductInstance(q *query.Q) (*query.Q, error) {
	if len(q.FDs.FDs) != 0 {
		return nil, fmt.Errorf("scenario: product instances require a query without FDs")
	}
	pack := bounds.VertexPacking(q)
	if pack == nil {
		return nil, fmt.Errorf("scenario: vertex packing unbounded (isolated variable)")
	}
	domain := make([]int, q.K)
	for i, v := range pack.Values {
		f, _ := v.Float64()
		domain[i] = int(math.Ceil(math.Exp2(f)))
		if domain[i] < 1 {
			domain[i] = 1
		}
	}
	rels := make([]*rel.Relation, len(q.Rels))
	for j, r := range q.Rels {
		nr := rel.New(r.Name, r.Attrs...)
		var recur func(d int, t rel.Tuple)
		recur = func(d int, t rel.Tuple) {
			if d == len(r.Attrs) {
				nr.Add(t...)
				return
			}
			for v := 0; v < domain[r.Attrs[d]]; v++ {
				t[d] = Value(v)
				recur(d+1, t)
			}
		}
		recur(0, make(rel.Tuple, len(r.Attrs)))
		rels[j] = nr
	}
	return q.WithFreshRels(rels), nil
}

// RandomQuery generates a random query with nVars variables, nRels binary
// or ternary relations, and optionally a random simple FD chain plus a
// random UDF FD, filled with FD-consistent random data. The generated
// query always validates; its UDF assigns the sum of the sources so that
// instances can be made consistent by construction.
func RandomQuery(rng *rand.Rand, nVars, nRels, nRows, domain int, withFDs bool) *query.Q {
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	q := query.New(names...)

	// Random relation schemas covering all variables. Arity is capped at
	// nVars: the distinct-variable draw below would otherwise never
	// terminate (found by FuzzPlannerConsistency with nVars = 2).
	covered := varset.Empty
	for j := 0; j < nRels; j++ {
		arity := 2 + rng.Intn(2)
		if arity > nVars {
			arity = nVars
		}
		var attrs []int
		seen := varset.Empty
		// Force coverage: include the lowest uncovered variable if any.
		if u := q.AllVars().Diff(covered); !u.IsEmpty() {
			v := u.Min()
			attrs = append(attrs, v)
			seen = seen.Add(v)
		}
		for len(attrs) < arity {
			v := rng.Intn(nVars)
			if !seen.Contains(v) {
				attrs = append(attrs, v)
				seen = seen.Add(v)
			}
		}
		covered = covered.Union(seen)
		q.AddRel(rel.New(fmt.Sprintf("R%d", j), attrs...))
	}
	// Cover leftovers with one extra relation.
	if u := q.AllVars().Diff(covered); !u.IsEmpty() {
		q.AddRel(rel.New("Rcov", u.Members()...))
	}

	var udfFD *fd.FD
	if withFDs && nVars >= 3 {
		// One UDF FD {a,b} → c with c ∉ {a,b}, computed as sum mod domain.
		a, b := rng.Intn(nVars), rng.Intn(nVars)
		for b == a {
			b = rng.Intn(nVars)
		}
		c := rng.Intn(nVars)
		for c == a || c == b {
			c = rng.Intn(nVars)
		}
		mod := Value(domain)
		q.FDs.AddUDF(varset.Of(a, b), c, func(args []Value) Value {
			return (args[0] + args[1]) % mod
		})
		udfFD = &q.FDs.FDs[len(q.FDs.FDs)-1]
	}

	// Random data: generate full random assignments over all variables,
	// apply the UDF to force consistency, then project into each relation.
	// This guarantees the relations are satisfiable together (non-empty
	// outputs are common) while extra random rows add noise.
	full := make([]Value, nVars)
	for t := 0; t < nRows; t++ {
		for i := range full {
			full[i] = Value(rng.Intn(domain))
		}
		if udfFD != nil {
			from := udfFD.From.Members()
			to := udfFD.To.Min()
			full[to] = udfFD.Fns[to]([]Value{full[from[0]], full[from[1]]})
		}
		for _, r := range q.Rels {
			// Project with probability 3/4 so relations differ.
			if rng.Intn(4) == 0 {
				continue
			}
			tu := make(rel.Tuple, r.Arity())
			for i, v := range r.Attrs {
				tu[i] = full[v]
			}
			r.AddTuple(tu)
		}
	}
	for _, r := range q.Rels {
		r.SortDedup()
	}
	return q
}

// RandomSimpleKeyQuery builds a random query whose only FDs are simple keys
// guarded in binary relations — the class for which AGM(Q⁺) is tight and
// the chain algorithm is worst-case optimal (Cor. 5.17).
func RandomSimpleKeyQuery(rng *rand.Rand, nVars, nRows int) *query.Q {
	names := make([]string, nVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	q := query.New(names...)
	for i := 0; i+1 < nVars; i++ {
		r := rel.New(fmt.Sprintf("R%d", i), i, i+1)
		isKey := rng.Intn(2) == 0
		for t := 0; t < nRows; t++ {
			a := Value(rng.Intn(nRows))
			b := Value(rng.Intn(5))
			if isKey {
				b = a % 5 // functionally determined
			}
			r.Add(a, b)
		}
		r.SortDedup()
		j := q.AddRel(r)
		if isKey {
			q.FDs.AddGuarded(varset.Single(i), varset.Single(i+1), j)
		}
	}
	return q
}

// ---------------------------------------------------------------------------
// Graph motifs: FD-free queries whose hypergraph is a named motif, filled
// with random edges. Each relation draws its edges independently, so the
// output exercises genuine multiway intersection.

// graphQuery builds a query over k variables v0..v{k-1} with one binary
// relation per listed edge.
func graphQuery(k int, edges [][2]int) *query.Q {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	q := query.New(names...)
	for j, e := range edges {
		q.AddRel(rel.New(fmt.Sprintf("E%d", j), e[0], e[1]))
	}
	return q
}

// fillUniformEdges adds rows uniform random pairs over [domain] to every
// relation of q (which must be all-binary), then sort-dedups.
func fillUniformEdges(q *query.Q, rows, domain int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, r := range q.Rels {
		for t := 0; t < rows; t++ {
			r.Add(Value(rng.Intn(domain)), Value(rng.Intn(domain)))
		}
		r.SortDedup()
	}
}

// PathQuery returns the k-variable path query R_i(v_i, v_{i+1}) with rows
// random edges per relation over a domain sized for non-trivial but bounded
// output.
func PathQuery(k, rows int, seed int64) *query.Q {
	edges := make([][2]int, k-1)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	q := graphQuery(k, edges)
	fillUniformEdges(q, rows, domainFor(rows), seed)
	return q
}

// StarQuery returns the star query R_i(v0, v_i) for i = 1..leaves with rows
// random edges per relation.
func StarQuery(leaves, rows int, seed int64) *query.Q {
	edges := make([][2]int, leaves)
	for i := range edges {
		edges[i] = [2]int{0, i + 1}
	}
	q := graphQuery(leaves+1, edges)
	fillUniformEdges(q, rows, domainFor(rows), seed)
	return q
}

// CliqueQuery returns the k-clique query (one binary relation per vertex
// pair) with rows random edges per relation.
func CliqueQuery(k, rows int, seed int64) *query.Q {
	var edges [][2]int
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	q := graphQuery(k, edges)
	fillUniformEdges(q, rows, domainFor(rows), seed)
	return q
}

// CycleQuery returns the k-cycle query R_i(v_i, v_{(i+1) mod k}) with rows
// random edges per relation.
func CycleQuery(k, rows int, seed int64) *query.Q {
	edges := make([][2]int, k)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % k}
	}
	q := graphQuery(k, edges)
	fillUniformEdges(q, rows, domainFor(rows), seed)
	return q
}

// domainFor sizes a uniform edge domain so random motifs neither degenerate
// to empty outputs nor explode: about 2√rows distinct values.
func domainFor(rows int) int {
	d := 2 * int(math.Sqrt(float64(rows)))
	if d < 2 {
		d = 2
	}
	return d
}

// ---------------------------------------------------------------------------
// Skewed instances.

// ZipfTriangle fills the triangle query with rows edges per relation whose
// endpoints are Zipf-distributed: heavy-hitter join values stress the skew
// handling of every algorithm (the regime of the paper's Example 5.8).
func ZipfTriangle(rows int, seed int64) *query.Q {
	q := graphQuery(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	rng := rand.New(rand.NewSource(seed))
	imax := uint64(domainFor(rows))
	z := rand.NewZipf(rng, 1.3, 1, imax)
	for _, r := range q.Rels {
		for t := 0; t < rows; t++ {
			r.Add(Value(z.Uint64()), Value(z.Uint64()))
		}
		r.SortDedup()
	}
	return q
}

// ZipfStar fills a 3-leaf star with rows edges per relation whose center
// values are Zipf-distributed while leaf values stay uniform: the center
// variable's degree distribution is maximally lopsided.
func ZipfStar(rows int, seed int64) *query.Q {
	q := graphQuery(4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	rng := rand.New(rand.NewSource(seed))
	imax := uint64(domainFor(rows))
	z := rand.NewZipf(rng, 1.3, 1, imax)
	dom := domainFor(rows)
	for _, r := range q.Rels {
		for t := 0; t < rows; t++ {
			r.Add(Value(z.Uint64()), Value(rng.Intn(dom)))
		}
		r.SortDedup()
	}
	return q
}

// staticPartOf is the frozen hub hash: the avalanche mixer ZipfHot plants
// its hub values with, so that they provably collide in one hash class. It
// mirrors nothing in the engine any more (the hash-partitioning scheduler it
// was copied from is gone) and must not change: skew/zipf-hot's instances —
// CONFORMANCE.json's rows and the benchmark's par-skew input — are a
// function of it.
func staticPartOf(v Value, nparts int) int {
	h := uint64(v)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(nparts))
}

// zipfHotHubs picks n values that (a) all hash to the class of value 0 —
// the Zipf head — at `workers` classes, so that one hash class owns the
// planted hubs AND the background's hottest keys, and (b) start at
// dom/8 and sit ≥ dom/n apart, so a value-range split gives the Zipf head
// and every hub its own morsel.
func zipfHotHubs(n, workers, dom int) []Value {
	want := staticPartOf(0, workers)
	hub := make([]Value, 0, n)
	for v := Value(dom / 8); len(hub) < n; v++ {
		if staticPartOf(v, workers) == want &&
			(len(hub) == 0 || v-hub[len(hub)-1] >= Value(dom/n)) {
			hub = append(hub, v)
		}
	}
	return hub
}

// ZipfHot builds the morsel scheduler's adversarial triangle: four planted
// hot x-hubs, each expanding into a fan×fan dense y/z block (fan ≈ √rows),
// whose values are chosen to land in the SAME hash class (staticPartOf) at 4
// workers — a scheduler dealing one hash part per worker serializes the
// entire hot mass on one worker, while value-range morsels with stealing
// spread it (the hubs are spaced apart in value rank, so each gets its own
// morsel).
// rows Zipf(1.3) background edges plus a uniform scaffold widen x's domain
// so the range partitioning has rank mass between the hubs.
func ZipfHot(rows int, seed int64) *query.Q {
	q := graphQuery(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	R, S, T := q.Rels[0], q.Rels[1], q.Rels[2]
	const hubs, workers = 4, 4
	fan := 2 * int(math.Sqrt(float64(rows)))
	if fan < 3 {
		fan = 3
	}
	dom := 64 * hubs // background x-domain; hubs sit at ~even offsets in it
	hub := zipfHotHubs(hubs, workers, dom)
	base := Value(10 * dom) // y/z blocks live far above the x domain
	for h, x := range hub {
		yb := base + Value(2*h*fan)
		zb := base + Value((2*h+1)*fan)
		for i := 0; i < fan; i++ {
			R.Add(x, yb+Value(i))
			T.Add(zb+Value(i), x)
			for j := 0; j < fan; j++ {
				S.Add(yb+Value(i), zb+Value(j))
			}
		}
	}
	// Scaffold: evenly spaced x-values whose y partner never joins (y < base
	// and every S y-value is ≥ base), guaranteeing dense, uniform rank mass
	// between the hubs whatever the Zipf draw concentrates on.
	for v := 0; v < dom; v += 4 {
		R.Add(Value(v), 1)
	}
	// Background: Zipf-hot x endpoints, but y/z drawn from their own range —
	// disjoint from the hub blocks and 4× wider, so hot background x-values
	// stay light (a heavy background hub sharing a morsel with a planted one
	// would re-concentrate the mass the morsel split exists to spread).
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 1, uint64(dom-1))
	bgBase, bgBlk := base+Value(2*fan*hubs), 4*fan*hubs
	for t := 0; t < rows; t++ {
		R.Add(Value(z.Uint64()), bgBase+Value(rng.Intn(bgBlk)))
		S.Add(bgBase+Value(rng.Intn(bgBlk)), bgBase+Value(rng.Intn(bgBlk)))
		T.Add(bgBase+Value(rng.Intn(bgBlk)), Value(z.Uint64()))
	}
	for _, r := range q.Rels {
		r.SortDedup()
	}
	return q
}

// NearProduct fills the triangle with a dense ⌊√rows⌋² product block plus
// rows/2 uniform noise edges over a 4× larger domain: the block saturates
// the AGM bound locally while the noise keeps the instance from being a
// pure product (the planner must not be fooled by either regime).
func NearProduct(rows int, seed int64) *query.Q {
	q := graphQuery(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	m := int(math.Sqrt(float64(rows)))
	if m < 2 {
		m = 2
	}
	rng := rand.New(rand.NewSource(seed))
	dom := 4 * m
	for _, r := range q.Rels {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r.Add(Value(i), Value(j))
			}
		}
		for t := 0; t < rows/2; t++ {
			r.Add(Value(rng.Intn(dom)), Value(rng.Intn(dom)))
		}
		r.SortDedup()
	}
	return q
}

// ---------------------------------------------------------------------------
// Adversarial guarded FD structures beyond simple chains.

// FDDag returns the diamond DAG Q(x,y,z,u) :- R(x,y), S(x,z), T(y,z,u) with
// guarded FDs x→y (R), x→z (S), and yz→u (T): two branches from x re-merge
// to determine u, so closure computation must traverse a genuine DAG. Data
// is FD-consistent by construction (y, z, u are fixed affine functions of x
// mod a prime-ish modulus) with rows base points plus noise rows in R only.
func FDDag(rows int, seed int64) *query.Q {
	q := query.New("x", "y", "z", "u")
	R := rel.New("R", 0, 1)
	S := rel.New("S", 0, 2)
	T := rel.New("T", 1, 2, 3)
	mod := Value(2*rows + 1)
	fy := func(x Value) Value { return (3*x + 1) % mod }
	fz := func(x Value) Value { return (5*x + 2) % mod }
	fu := func(y, z Value) Value { return (y + z) % mod }
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < rows; t++ {
		x := Value(rng.Intn(2 * rows))
		R.Add(x, fy(x))
		S.Add(x, fz(x))
		T.Add(fy(x), fz(x), fu(fy(x), fz(x)))
	}
	// Noise: extra x points present only in R, so joins actually filter.
	for t := 0; t < rows/4; t++ {
		x := Value(rng.Intn(2 * rows))
		R.Add(x, fy(x))
	}
	R.SortDedup()
	S.SortDedup()
	T.SortDedup()
	q.AddRel(R)
	q.AddRel(S)
	q.AddRel(T)
	q.FDs.AddGuarded(q.Vars("x"), q.Vars("y"), 0)
	q.FDs.AddGuarded(q.Vars("x"), q.Vars("z"), 1)
	q.FDs.AddGuarded(q.Vars("y", "z"), q.Vars("u"), 2)
	return q
}

// FDCycle returns the cyclic key query Q(x,y,z) :- R(x,y), S(y,z), T(z,x)
// with guarded FDs x→y, y→z, and z→x: every variable determines every
// other, so the FD closure of any singleton is the whole universe and the
// lattice collapses to near-trivial while the hypergraph stays cyclic. Rows
// follow consistent affine chains x → x+1 → x+2 (mod m).
func FDCycle(rows int, seed int64) *query.Q {
	q := graphQuery(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	m := Value(rows + 3)
	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < rows; t++ {
		x := Value(rng.Intn(int(m)))
		q.Rels[0].Add(x, (x+1)%m)
		q.Rels[1].Add((x+1)%m, (x+2)%m)
		q.Rels[2].Add((x+2)%m, x)
	}
	for _, r := range q.Rels {
		r.SortDedup()
	}
	q.FDs.AddGuarded(q.Vars("v0"), q.Vars("v1"), 0)
	q.FDs.AddGuarded(q.Vars("v1"), q.Vars("v2"), 1)
	q.FDs.AddGuarded(q.Vars("v2"), q.Vars("v0"), 2)
	return q
}

// AGMProduct builds a random triangle, then replaces its instance with the
// AGM-saturating product instance of Theorem 2.1 part 2, so the output
// meets the planner's predicted bound with (near) zero slack.
func AGMProduct(rows int, seed int64) *query.Q {
	base := graphQuery(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	fillUniformEdges(base, rows, domainFor(rows), seed)
	pq, err := ProductInstance(base)
	if err != nil {
		panic(fmt.Sprintf("scenario: AGM product construction failed: %v", err))
	}
	return pq
}
