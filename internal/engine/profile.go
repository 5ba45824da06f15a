package engine

import (
	"context"
	"errors"
	"time"

	"repro/internal/query"
)

// PartProfile holds the sequential execution time of every parallel split
// (morsel or static hash part) of a bound instance, measured one split at a
// time on the calling goroutine. On a machine with fewer cores than workers
// a parallel wall-clock measurement only measures the Go scheduler, so the
// benchmark tooling measures splits sequentially and models multi-worker
// wall clocks with Makespan — deterministic, and honest about what each
// scheduler's assignment policy can and cannot overlap.
type PartProfile struct {
	Durations []time.Duration
}

// ProfileSplits measures each split of the bound instance's parallel
// execution sequentially: the morsel schedule's morsels (static=false) or
// the legacy scheduler's hash parts (static=true), under opts' plan and
// worker count (clamped like a real run). Each split runs the buffered
// hand-off: the code a pool worker runs for a morsel that is neither counted
// nor streamed directly.
func (b *Bound) ProfileSplits(ctx context.Context, opts *Options, static bool) (*PartProfile, error) {
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
	var parts []*query.Q
	if static {
		parts = b.partitions(v, workers)
	} else {
		nm := morselCount(len(vals), workers, o.MorselSize)
		if plan.Algorithm != AlgGenericJoin && nm > workers {
			nm = workers // mirror runMorselsInto's algorithm-aware grain cap
		}
		parts = b.morselParts(v, vals, nm)
	}
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

// Makespan models the wall clock of executing the profiled splits on
// `workers` workers. With stealing, splits are taken in id order by
// whichever worker frees up first — list scheduling, the steady-state
// behaviour of the morsel pool's pop-own-front + steal-from-busiest queue.
// Without stealing, split i is pinned to worker i%workers, the static
// fork/join assignment (which has exactly one split per worker, so a hot
// part is a hot worker).
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
