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

// ProfileSplits measures each morsel of the schedule an auto run (or a run
// of opts' explicit algorithm) executes on the bound instance, one morsel at
// a time on the calling goroutine. It reads what a run reads: the worker
// count (Options.workers), the plan — the Bound's verdict once an auto run's
// attempt decided it (generic join, or the machine that overran), else
// Plan() — and the memoized schedule, so it profiles the very split
// instances the runs execute and the next run builds nothing it did not.
// Each morsel runs the buffered hand-off: the code a pool worker runs for a
// morsel that is neither counted nor streamed directly. A sequential run has
// no morsels to profile: that is an error.
//
// The bool is ignored: it once selected a second scheduler's splits, and
// the signature stays until the benchmark (bench/layers.go) stops calling
// it.
func (b *Bound) ProfileSplits(ctx context.Context, opts *Options, _ bool) (*PartProfile, error) {
	o := opts.withDefaults()
	plan := b.won.Load()
	if plan == nil || o.Algorithm != AlgAuto {
		var err error
		if plan, err = b.plan(o.Algorithm); err != nil {
			return nil, err
		}
	}
	s := b.schedule(plan, o.workers(b.q))
	if s.parts == nil {
		return nil, errors.New("engine: the run is sequential: no morsels to profile")
	}
	prof := &PartProfile{Durations: make([]time.Duration, len(s.parts))}
	for m, qm := range s.parts {
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
// `workers` workers: morsels are taken in id order by whichever worker frees
// up first — list scheduling, the steady-state behaviour of the morsel
// pool's pop-own-front + steal-from-busiest queue.
//
// The bool is ignored: it once selected a model of a static scheduler
// without stealing, and the signature stays until the benchmark
// (bench/layers.go) stops passing it.
func (p *PartProfile) Makespan(workers int, _ bool) time.Duration {
	if workers < 1 {
		workers = 1
	}
	finish := make([]time.Duration, workers)
	for _, d := range p.Durations {
		w := 0
		for j := 1; j < workers; j++ {
			if finish[j] < finish[w] {
				w = j
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
