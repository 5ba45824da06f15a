package bench

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/fdq"
)

// kernelDigest keeps the kernels' hashes live so the compiler cannot drop
// the work.
var kernelDigest digest

// calibrate times the fixed calibration kernel, sort then hash of a seeded
// one-million-int slice, and returns the fastest of reps runs in ms. It is
// stamped on every result so snapshots taken on different boxes can be
// normalised. The seed is a constant: the kernel does not follow -seed.
func calibrate(reps int) float64 {
	best := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(20160626))
		xs := make([]fdq.Value, 1<<20)
		for i := range xs {
			xs[i] = rng.Int63()
		}
		start := time.Now()
		slices.Sort(xs)
		kernelDigest = fnvOffset64.row(xs)
		best = min(best, ms(time.Since(start)))
	}
	return best
}

// The box this benchmark runs on is a shared virtual machine whose speed
// drifts by ±10 % over tens of seconds (measured: the same round, the same
// process, 80 ms one minute and 98 ms the next, with no steal time
// reported). No statistic over one run's rounds removes a drift slower than
// the run, and the driver compares runs made minutes apart. So the measured
// pass interleaves a small fixed kernel with its rounds and reports every
// time in *calibrated* units: wall clock × paceRefMS ÷ (this run's median
// kernel time). On a box where the kernel takes paceRefMS the two are
// equal. The kernel tracks the drift to about a half (sort, hash and map
// probes over 512 KB; the workloads are more memory-bound than it is), so
// this halves the run-to-run spread; it does not remove it. The raw values
// and the factor are printed and stored beside the calibrated ones.
const (
	paceRefMS = 5.5 // the kernel's median on the box the sizes were frozen on
	paceEvery = 2   // one kernel slice before every second round
	paceElems = 1 << 16
)

// pacer runs the pace kernel and remembers how long each slice took. It
// allocates nothing after construction, so the alloc metrics stay the
// workload's own.
type pacer struct {
	xs      []int64
	seen    map[int64]int32
	samples []float64
}

func newPacer() *pacer {
	return &pacer{xs: make([]int64, paceElems), seen: make(map[int64]int32, 1<<12), samples: make([]float64, 0, 1024)}
}

// slice runs the kernel once: fill with a xorshift sequence, sort, count
// low bits in a map, hash.
func (p *pacer) slice() {
	start := time.Now()
	x := int64(88172645463325252)
	for i := range p.xs {
		x ^= x << 13
		x ^= int64(uint64(x) >> 7)
		x ^= x << 17
		p.xs[i] = x
	}
	slices.Sort(p.xs)
	clear(p.seen)
	for i, v := range p.xs[:paceElems/4] {
		p.seen[v&0xfff] += int32(i)
	}
	kernelDigest = fnvOffset64.row(p.xs) + digest(len(p.seen))
	p.samples = append(p.samples, ms(time.Since(start)))
}

// factor converts this run's wall-clock times to calibrated ones.
func (p *pacer) factor() float64 { return paceRefMS / median(p.samples) }
