package lp

// DiffSolve is diffSolve for the external tests of this directory, which
// may import the packages that build the repository's LPs.
var DiffSolve = diffSolve

// CollectSolves runs fn and returns every problem passed to Solve meanwhile.
func CollectSolves(fn func()) []*Problem {
	var seen []*Problem
	testHookSolve = func(p *Problem) { seen = append(seen, p) }
	defer func() { testHookSolve = nil }()
	fn()
	return seen
}
