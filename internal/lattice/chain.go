package lattice

// Chain is a strictly increasing sequence of lattice elements from Bottom to
// Top: C_0 = 0̂ ≺ C_1 ≺ ... ≺ C_k = 1̂ (Sec. 5.1).
type Chain []int

// IsChain validates that c starts at Bottom, ends at Top, and is strictly
// increasing in the lattice order.
func (l *Lattice) IsChain(c Chain) bool {
	if len(c) < 1 || c[0] != l.Bottom || c[len(c)-1] != l.Top {
		return false
	}
	for i := 1; i < len(c); i++ {
		if !l.Lt(c[i-1], c[i]) {
			return false
		}
	}
	return true
}

// CoversStep reports whether element x "covers" step i of the chain:
// x ∧ C_i ≠ x ∧ C_{i-1}.
func (l *Lattice) CoversStep(c Chain, x, i int) bool {
	return l.Meet(x, c[i]) != l.Meet(x, c[i-1])
}

// GoodFor reports whether the chain is good for element r (Eq. 11):
// for every step i that r covers, C_{i-1} ∨ (r ∧ C_i) = C_i.
func (l *Lattice) GoodFor(c Chain, r int) bool {
	for i := 1; i < len(c); i++ {
		if l.CoversStep(c, r, i) && l.Join(c[i-1], l.Meet(r, c[i])) != c[i] {
			return false
		}
	}
	return true
}

// GoodForAll reports whether the chain is good for every element in rs.
func (l *Lattice) GoodForAll(c Chain, rs []int) bool {
	for _, r := range rs {
		if !l.GoodFor(c, r) {
			return false
		}
	}
	return true
}

// EachMaximalChain calls yield with every maximal chain from Bottom to Top,
// depth first over each element's upper covers in ascending index order,
// until yield returns false: a search that can stop early never builds the
// rest, and their count can be exponential. Each chain yielded is a fresh
// slice.
func (l *Lattice) EachMaximalChain(yield func(Chain) bool) {
	var cur Chain
	var rec func(x int) bool
	rec = func(x int) bool {
		cur = append(cur, x)
		more := true
		if x == l.Top {
			more = yield(append(Chain(nil), cur...))
		} else {
			for _, u := range l.upperCovers[x] {
				if more = rec(u); !more {
					break
				}
			}
		}
		cur = cur[:len(cur)-1]
		return more
	}
	rec(l.Bottom)
}

// ChainEdge returns, per input element r, the set of steps of the chain that
// r covers — the hyperedge e_r of the chain hypergraph H_C (Def. 5.1).
// Steps are numbered 1..len(c)-1 and returned 0-based as step-1.
func (l *Lattice) ChainEdge(c Chain, r int) []int {
	var e []int
	for i := 1; i < len(c); i++ {
		if l.CoversStep(c, r, i) {
			e = append(e, i-1)
		}
	}
	return e
}

// GoodChainJoinIrreducibles constructs a good chain per Corollary 5.9: it
// greedily joins join-irreducibles below the inputs, always choosing one
// whose join with the prefix is minimal among the candidates, which
// guarantees the chain is good for every input and its chain hypergraph has
// no isolated vertex.
func (l *Lattice) GoodChainJoinIrreducibles(inputs []int) Chain {
	// J = join-irreducibles below the order ideal generated by the inputs.
	var J []int
	for _, z := range l.JoinIrreducibles() {
		below := false
		for _, r := range inputs {
			if l.Leq(z, r) {
				below = true
				break
			}
		}
		if below {
			J = append(J, z)
		}
	}
	used := make([]bool, l.Size())
	chain := Chain{l.Bottom}
	cur := l.Bottom
	for cur != l.Top {
		best, bestJoin := -1, -1
		for _, z := range J {
			if used[z] {
				continue
			}
			jn := l.Join(cur, z)
			if jn == cur {
				used[z] = true // already below the prefix; consume it
				continue
			}
			// Choose z making the new join minimal.
			if best < 0 || l.Lt(jn, bestJoin) {
				best, bestJoin = z, jn
			}
		}
		if best < 0 {
			// Inputs don't join to Top (⋁R ≠ 1̂): finish with Top itself.
			chain = append(chain, l.Top)
			break
		}
		used[best] = true
		chain = append(chain, bestJoin)
		cur = bestJoin
	}
	return chain
}

// GoodChainMeetIrreducibles constructs a chain per Corollary 5.11, working
// down from Top by meeting meet-irreducibles, then reversing.
func (l *Lattice) GoodChainMeetIrreducibles(inputs []int) Chain {
	M := l.MeetIrreducibles()
	used := make([]bool, l.Size())
	desc := []int{l.Top}
	cur := l.Top
	for cur != l.Bottom {
		best, bestMeet := -1, -1
		for _, z := range M {
			if used[z] {
				continue
			}
			mt := l.Meet(cur, z)
			if mt == cur {
				used[z] = true
				continue
			}
			// Choose z making the new meet maximal (dual of Cor. 5.9).
			if best < 0 || l.Lt(bestMeet, mt) {
				best, bestMeet = z, mt
			}
		}
		if best < 0 {
			desc = append(desc, l.Bottom)
			break
		}
		used[best] = true
		desc = append(desc, bestMeet)
		cur = bestMeet
	}
	// Reverse into ascending order.
	out := make(Chain, len(desc))
	for i, x := range desc {
		out[len(desc)-1-i] = x
	}
	return out
}
