// Package bench is the repository's one benchmark: six named workloads,
// each a closed loop over a fixed query list, measured end to end through
// the public fdq / fdqc / fdqd API and, in a separate traced pass, layer by
// layer around the public functions of each internal package. It edits
// nothing outside bench/: every layer is measured from outside.
//
// See README.md for the glossary and cmd/fdqbench for the command.
package bench

import "fmt"

// mode selects how a workload drives its queries.
type mode int

const (
	modeWarm   mode = iota // one warm session, Workers=1
	modePar                // one warm session, Workers=GOMAXPROCS
	modeCold               // a fresh session every round
	modeReload             // warm session; relations re-Defined before each query
	modeWire               // fdqc clients against an in-process fdqd over loopback TCP
)

// Workload is one named query mix. The sizes are frozen: they were trimmed
// on a 2-core box so that a round takes roughly 50-110 ms, and a changed
// size is a changed workload (the exact-repeat counts will say so).
type Workload struct {
	Name    string
	Why     string
	mode    mode
	sources []source
}

// Workloads returns the six workloads in reporting order.
func Workloads() []*Workload { return workloads }

// WorkloadByName looks a workload up by its contract name.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

var workloads = []*Workload{
	{
		Name: "fd-warm",
		Why:  "warm shapes the planner routes to chain, SM and CSMA on the paper's own instances: FD-aware executors, expansion and hash joins dominate; planning and generic join do nothing",
		mode: modeWarm,
		sources: []source{
			{"paper/fig1-skew", 2048, 96},
			{"paper/fig1-quasi", 256, 64},
			{"paper/m3-mod", 64, 24},
			{"paper/fig4", 216, 64},
			{"paper/colored-triangle", 1024, 64},
			{"paper/fig9", 64, 32},
			{"paper/degree-triangle", 2048, 128},
			{"paper/simple-fd-chain", 64, 32},
			{"paper/four-cycle-key", 2048, 64},
			{"fd/dag", 1024, 64},
		},
	},
	{
		Name: "wcoj-warm",
		Why:  "warm FD-free shapes routed to generic join: trie descent, intersection and materialisation dominate; the FD machinery is bypassed, so an fd-warm gain predicts no change here",
		mode: modeWarm,
		sources: []source{
			{"paper/triangle-product", 32, 6},
			{"worst/agm-product", 1024, 64},
			{"skew/zipf-triangle", 16384, 128},
			{"skew/zipf-hot", 2048, 64},
			{"skew/near-product", 1024, 64},
			{"motif/clique4", 1024, 64},
			{"motif/cycle4", 512, 64},
			{"motif/path", 256, 48},
		},
	},
	{
		Name: "par-skew",
		Why:  "the same executors at Workers=GOMAXPROCS on instances over the 2048-row parallel threshold: the only place the morsel scheduler, stealing and the ordered merge run on real cores",
		mode: modePar,
		sources: []source{
			{"skew/zipf-hot", 2048, 1024},
			{"skew/near-product", 1024, 1024},
			{"paper/triangle-product", 40, 27},
			{"paper/fig1-skew", 2048, 768},
			{"paper/four-cycle-key", 2048, 640},
			{"paper/degree-triangle", 2048, 768},
		},
	},
	{
		Name: "plan-cold",
		Why:  "a fresh session every round on tiny data, so every query is a cache miss: lattice build, chain/LLP/CLLP solves and SM proof search dominate; warm workloads must not move when planning gets faster",
		mode: modeCold,
		sources: []source{
			{"paper/fig1-quasi", 64, 36},
			{"paper/m3-mod", 24, 24},
			{"paper/fig4", 64, 64},
			{"paper/fig9", 32, 32},
			{"paper/fig5", 48, 36},
			{"paper/degree-triangle", 128, 64},
			{"paper/colored-triangle", 64, 64},
			{"paper/simple-fd-chain-6", 32, 16},
			{"paper/four-cycle-key", 64, 32},
			{"paper/composite-key", 12, 8},
			{"fd/dag", 64, 32},
			{"fd/cycle", 64, 48},
			{"motif/clique4", 64, 24},
			{"motif/path-8", 16, 12},
			{"skew/zipf-triangle", 64, 64},
		},
	},
	{
		Name: "reload-churn",
		Why:  "warm shapes whose relations are re-Defined before every query: sort-dedup, snapshot swap, re-bind, FD re-validation and uncached index builds, which warm workloads skip; slower invalidation shows here",
		mode: modeReload,
		sources: []source{
			{"skew/zipf-triangle", 8192, 128},
			{"skew/near-product", 1024, 64},
			{"motif/cycle4", 512, 64},
			{"fd/dag", 2048, 64},
			{"fd/cycle", 4096, 96},
			{"paper/colored-triangle", 1024, 64},
			{"paper/degree-triangle", 2048, 128},
		},
	},
	{
		Name: "wire-loopback",
		Why:  "the same mix over TCP through fdqd behind a queueing governor: spec JSON, the Rows hand-off, batch encode, TCP and decode dominate, executors are a minority share; a codec gain shows only here",
		mode: modeWire,
		sources: []source{
			{"skew/zipf-triangle", 64, 64},
			{"skew/zipf-triangle", 8192, 128},
			{"fd/dag", 2048, 64},
			{"paper/four-cycle-key", 2048, 64},
			{"paper/colored-triangle", 1024, 64},
			{"paper/triangle-product", 32, 6},
			{"skew/near-product", 1024, 64},
		},
	},
}
