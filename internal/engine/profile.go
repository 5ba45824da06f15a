package engine

import (
	"context"
	"errors"
	"time"
)

// PartProfile holds the sequential execution time of every morsel of a
// bound instance's parallel schedule, measured one morsel at a time on the
// calling goroutine. On a machine with fewer cores than workers a parallel
// wall-clock measurement only measures the Go scheduler, so the benchmark
// measures morsels sequentially and models multi-worker wall clocks with
// Makespan — deterministic, and honest about what an assignment policy can
// and cannot overlap.
type PartProfile struct {
	Durations []time.Duration
}

// ProfileSplits measures each morsel of the bound instance's parallel
// schedule sequentially, under opts' plan and worker count (clamped like a
// real run). Each morsel runs the buffered hand-off: the code a pool worker
// runs for a morsel that is neither counted nor streamed directly.
//
// The bool is ignored: it once selected a second scheduler's splits, and
// the signature stays until the benchmark (bench/layers.go) stops calling
// it.
func (b *Bound) ProfileSplits(ctx context.Context, opts *Options, _ bool) (*PartProfile, error) {
	o := opts.withDefaults()
	plan, err := b.plan(o.Algorithm)
	if err != nil {
		return nil, err
	}
	workers := o.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	v := choosePartitionVar(b.q, plan)
	if v < 0 {
		return nil, errors.New("engine: no partition variable: nothing to profile")
	}
	vals := b.distinctVals(v)
	if len(vals) < workers {
		workers = len(vals)
	}
	if workers <= 1 {
		return nil, errors.New("engine: instance degrades to sequential after the worker clamp")
	}
	nm := morselCount(len(vals), workers)
	if plan.Algorithm != AlgGenericJoin && nm > workers {
		nm = workers // mirror runMorselsInto's algorithm-aware grain cap
	}
	parts := b.morselParts(v, vals, nm)
	prof := &PartProfile{Durations: make([]time.Duration, len(parts))}
	for m, qm := range parts {
		start := time.Now()
		if _, _, err := runBuffered(ctx, qm, plan, &memGauge{}); err != nil {
			return nil, err
		}
		prof.Durations[m] = time.Since(start)
	}
	return prof, nil
}

// Total returns the sequential wall clock: the sum of all split durations.
func (p *PartProfile) Total() time.Duration {
	var sum time.Duration
	for _, d := range p.Durations {
		sum += d
	}
	return sum
}

// Makespan models the wall clock of executing the profiled morsels on
// `workers` workers. With stealing, morsels are taken in id order by
// whichever worker frees up first — list scheduling, the steady-state
// behaviour of the morsel pool's pop-own-front + steal-from-busiest queue.
// Without stealing, morsel i is pinned to worker i%workers, so a hot
// morsel's worker finishes last however idle the others are.
func (p *PartProfile) Makespan(workers int, stealing bool) time.Duration {
	if workers < 1 {
		workers = 1
	}
	finish := make([]time.Duration, workers)
	for i, d := range p.Durations {
		w := i % workers
		if stealing {
			w = 0
			for j := 1; j < workers; j++ {
				if finish[j] < finish[w] {
					w = j
				}
			}
		}
		finish[w] += d
	}
	var wall time.Duration
	for _, f := range finish {
		if f > wall {
			wall = f
		}
	}
	return wall
}
