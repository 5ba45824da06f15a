// Package smalg implements the Sub-Modularity bound and Algorithm of
// Sec. 5.2: SM proof sequences (Balister–Bollobás style), the goodness
// labelling of Definition 5.26, and the SM Algorithm (Algorithm 2) with its
// heavy/light sub-modularity joins.
package smalg

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/bounds"
	"repro/internal/lattice"
)

// Step is one SM-step: consume live slots (SlotX, SlotY) holding
// incomparable lattice elements X, Y and produce two new slots holding
// X∧Y and X∨Y.
type Step struct {
	SlotX, SlotY int // slot ids consumed
	X, Y         int // lattice elements of the consumed slots
	Meet, Join   int // lattice elements produced
	SlotMeet     int // slot id created for X∧Y
	SlotJoin     int // slot id created for X∨Y
}

// Proof is an SM proof sequence over a multiset of input copies.
//
// Slots 0..len(InitElems)-1 are the initial multiset (input R_j repeated
// q_j times where w*_j = q_j/D); each step consumes two live slots and
// creates two more. Live slots at the end form a chain; D of them hold 1̂.
type Proof struct {
	D         int   // common denominator of the dual weights
	InitElems []int // lattice element per initial slot
	InitRel   []int // input relation index per initial slot
	Steps     []Step
	NumSlots  int
}

// LiveSlots returns the slot ids alive after all steps.
func (p *Proof) LiveSlots() []int {
	dead := make([]bool, p.NumSlots)
	for _, s := range p.Steps {
		dead[s.SlotX] = true
		dead[s.SlotY] = true
	}
	var out []int
	for i := 0; i < p.NumSlots; i++ {
		if !dead[i] {
			out = append(out, i)
		}
	}
	return out
}

// slotElem returns the lattice element held by each slot.
func (p *Proof) slotElems() []int {
	elems := make([]int, p.NumSlots)
	for i, e := range p.InitElems {
		elems[i] = e
	}
	for _, s := range p.Steps {
		elems[s.SlotMeet] = s.Meet
		elems[s.SlotJoin] = s.Join
	}
	return elems
}

// bitset is a growable dense set of small non-negative ints (label ids).
type bitset []uint64

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// or folds o into b, growing as needed.
func (b *bitset) or(o bitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for w, bits := range o {
		(*b)[w] |= bits
	}
}

// IsGood runs the labelling procedure of Definition 5.26 and reports whether
// the proof sequence is good: every SM-step has a non-empty label
// intersection A(X,Y), and at the end every label appears in the union of
// the label sets of 1̂-slots. Label ids are dense small integers, so label
// sets are bitsets: the per-step intersection, the fresh-label fan-out, and
// the final union are word-wise operations instead of map churn.
func (p *Proof) IsGood(l *lattice.Lattice) bool {
	labels := make([]bitset, p.NumSlots)
	live := make([]bool, p.NumSlots)
	for i := range p.InitElems {
		labels[i] = bitset{1 << 1}
		live[i] = true
	}
	nextLabel := 2
	elems := p.slotElems()

	var A bitset
	for _, s := range p.Steps {
		// A(X, Y) = Labels(X) ∩ Labels(Y).
		lx, ly := labels[s.SlotX], labels[s.SlotY]
		A = A[:0]
		empty := true
		for w := 0; w < len(lx) && w < len(ly); w++ {
			v := lx[w] & ly[w]
			A = append(A, v)
			empty = empty && v == 0
		}
		if empty {
			return false
		}
		// Labels(X∨Y) = A.
		labels[s.SlotJoin] = append(bitset(nil), A...)
		live[s.SlotJoin] = true
		// Labels(X∧Y) = fresh f(j) per j ∈ A (when the meet is not 0̂).
		// Fresh ids are assigned in ascending order of j; freshBase maps
		// j (the i-th set bit of A) to freshBase + i.
		var meetLabels bitset
		freshBase := nextLabel
		nA := 0
		if s.Meet != l.Bottom {
			for _, w := range A {
				nA += bits.OnesCount64(w)
			}
			for i := 0; i < nA; i++ {
				meetLabels.set(nextLabel)
				nextLabel++
			}
		}
		labels[s.SlotMeet] = meetLabels
		live[s.SlotMeet] = true
		if nA == 0 {
			continue
		}
		// Every OTHER slot Z (the consumed X, Y stay in the labelling
		// multiset per Def. 5.26) gains {f(j) : j ∈ Labels(Z) ∩ A}.
		for z := 0; z < p.NumSlots; z++ {
			if !live[z] || z == s.SlotMeet || z == s.SlotJoin {
				continue
			}
			lz := &labels[z]
			rank := 0
			for w := 0; w < len(A); w++ {
				aw := A[w]
				if aw == 0 {
					continue
				}
				zw := uint64(0)
				if w < len(*lz) {
					zw = (*lz)[w]
				}
				for rem := aw; rem != 0; rem &= rem - 1 {
					if zw&rem&-rem != 0 {
						lz.set(freshBase + rank)
					}
					rank++
				}
			}
		}
	}
	// Union of labels over all slots that hold 1̂; good iff it covers every
	// label ever created ([1, nextLabel)).
	var topLabels bitset
	for i := 0; i < p.NumSlots; i++ {
		if elems[i] == l.Top && live[i] {
			topLabels.or(labels[i])
		}
	}
	for j := 1; j < nextLabel; j++ {
		if !topLabels.has(j) {
			return false
		}
	}
	return true
}

// commonDenominator returns d and integers q_j so that w_j = q_j/d.
func commonDenominator(w []*big.Rat) (int, []int) {
	d := big.NewInt(1)
	for _, wj := range w {
		d = lcm(d, wj.Denom())
	}
	qs := make([]int, len(w))
	for j, wj := range w {
		t := new(big.Int).Mul(wj.Num(), new(big.Int).Div(d, wj.Denom()))
		qs[j] = int(t.Int64())
	}
	return int(d.Int64()), qs
}

func lcm(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	return new(big.Int).Div(new(big.Int).Mul(a, b), g)
}

// FindProof searches for a good SM proof using the dual weights returned by
// the LLP solve. Different optimal dual vertices can differ in whether a
// good proof exists; FindProofAuto searches across them.
func FindProof(llp *bounds.LLPResult) *Proof {
	return findProofFor(llp, llp.W)
}

// findProofFor backtracks over the choice of SM-steps for the multiset
// defined by weights w (w_j = q_j/d copies of R_j), preferring steps that
// are tight for h* (required for the size invariants of Lemma 5.24; any
// primal-optimal h* is complementary to any dual-optimal w, since if w_j > 0
// forced h*(R_j) < n_j the output inequality would fail at h*), and
// validates goodness (Def. 5.26) before accepting a terminal state. It
// returns nil when no good SM proof exists within the node budget (e.g.
// Fig. 9 / Example 5.31).
func findProofFor(llp *bounds.LLPResult, w []*big.Rat) *Proof {
	l := llp.Lat
	d, qs := commonDenominator(w)
	var initElems, initRel []int
	for j, e := range llp.Inputs {
		for c := 0; c < qs[j]; c++ {
			initElems = append(initElems, e)
			initRel = append(initRel, j)
		}
	}
	if len(initElems) == 0 {
		return nil
	}

	tight := func(x, y int) bool {
		lhs := new(big.Rat).Add(llp.H[x], llp.H[y])
		rhs := new(big.Rat).Add(llp.H[l.Meet(x, y)], llp.H[l.Join(x, y)])
		return lhs.Cmp(rhs) == 0
	}

	budget := 200000
	var steps []Step
	var found *Proof

	// live holds the lattice element per live slot (-1 = consumed).
	live := append([]int{}, initElems...)

	var rec func() bool
	rec = func() bool {
		if budget <= 0 {
			return false
		}
		budget--
		// Collect incomparable live pairs, tight-for-h* first.
		type cand struct{ i, j int }
		var tightPairs, loosePairs []cand
		for i := 0; i < len(live); i++ {
			if live[i] < 0 {
				continue
			}
			for j := i + 1; j < len(live); j++ {
				if live[j] < 0 || !l.Incomparable(live[i], live[j]) {
					continue
				}
				if tight(live[i], live[j]) {
					tightPairs = append(tightPairs, cand{i, j})
				} else {
					loosePairs = append(loosePairs, cand{i, j})
				}
			}
		}
		if len(tightPairs) == 0 && len(loosePairs) == 0 {
			// Terminal: all comparable. Require d copies of 1̂ and goodness.
			topCount := 0
			for _, e := range live {
				if e == l.Top {
					topCount++
				}
			}
			if topCount < d {
				return false
			}
			p := &Proof{D: d, InitElems: initElems, InitRel: initRel,
				Steps: append([]Step{}, steps...), NumSlots: len(live)}
			if !p.IsGood(l) {
				return false
			}
			found = p
			return true
		}
		// Prefer tight steps; only fall back to loose ones if no tight step
		// exists (loose steps would break Lemma 5.24's size invariant, but
		// exploring them can still find good proofs of weaker bounds).
		cands := tightPairs
		if len(cands) == 0 {
			cands = loosePairs
		}
		for _, c := range cands {
			x, y := live[c.i], live[c.j]
			mt, jn := l.Meet(x, y), l.Join(x, y)
			slotMeet := len(live)
			slotJoin := len(live) + 1
			steps = append(steps, Step{SlotX: c.i, SlotY: c.j, X: x, Y: y,
				Meet: mt, Join: jn, SlotMeet: slotMeet, SlotJoin: slotJoin})
			live[c.i], live[c.j] = -1, -1
			live = append(live, mt, jn)
			if rec() {
				return true
			}
			live = live[:len(live)-2]
			live[c.i], live[c.j] = x, y
			steps = steps[:len(steps)-1]
		}
		return false
	}
	rec()
	return found
}

// String renders the proof for diagnostics.
func (p *Proof) String() string {
	return fmt.Sprintf("SMProof{d=%d, init=%v, steps=%d}", p.D, p.InitElems, len(p.Steps))
}
