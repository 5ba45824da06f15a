package lp

import (
	"fmt"
	"sync"
)

// DiffSolve is diffSolve for the external tests of this directory, which
// may import the packages that build the repository's LPs.
var DiffSolve = diffSolve

// RefVertices is refVertices, the exhaustive vertex enumeration, for the
// external tests that diff the searches built on Vertices against it.
var RefVertices = refVertices

// CollectSolves runs fn and returns every problem passed to Solve meanwhile.
func CollectSolves(fn func()) []*Problem { return CollectSolvesBelow(0, fn) }

// CollectSolvesBelow is CollectSolves for an fn that must solve no problem
// of maxVars or more variables (0: no limit): such a problem panics before it
// is solved, so a guard against a solve too large to finish fails without
// paying for it.
// The problems of concurrent solves (a parallel run's splits) are collected
// under a mutex.
func CollectSolvesBelow(maxVars int, fn func()) []*Problem {
	var mu sync.Mutex
	var seen []*Problem
	testHookSolve = func(p *Problem) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
		if maxVars > 0 && p.NumVars >= maxVars {
			panic(fmt.Sprintf("lp: a problem of %d variables, limit %d", p.NumVars, maxVars-1))
		}
	}
	defer func() { testHookSolve = nil }()
	fn()
	return seen
}
