// Package work is the executors' one work meter. Each executor counts the
// work the paper's running-time results charge (its Stats.Work) and hands the
// total to a Meter where it checks for cancellation. The meter polls ctx, and
// fires its caller's fault site, on its first check and every Interval units,
// and stops the run with ErrLimit past the Limit its context carries, if any.
//
// Every meter started under one limit draws on it, the morsels of a parallel
// run concurrently, adding its run's work at most every ShareQuantum units.
// So a lone run stops at its first check past the limit, and k concurrent
// ones spend at most k·(ShareQuantum + one step) past it between them, a step
// being the work between two checks of one run.
package work

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/faultinject"
)

const (
	// Interval is how much work a meter does between two polls of ctx.
	Interval = 256
	// ShareQuantum is the most work a meter does under a limit between two
	// additions to the limit's shared count.
	ShareQuantum = 4096
)

// ErrLimit reports that a run's work passed the limit its context carries.
var ErrLimit = errors.New("work: limit exceeded")

// Limit bounds the work of every meter started under a context carrying it.
type Limit struct {
	max   int
	spent atomic.Int64 // work the meters have added so far
}

type limitKey struct{}

// WithLimit returns ctx carrying a new limit of n work units, and the limit.
func WithLimit(ctx context.Context, n int) (context.Context, *Limit) {
	l := &Limit{max: n}
	return context.WithValue(ctx, limitKey{}, l), l
}

// Spent reports the work the meters under l have added so far.
func (l *Limit) Spent() int { return int(l.spent.Load()) }

// Meter meters one run; it is not safe for concurrent use. The zero Meter
// has no limit and fires no site.
type Meter struct {
	limit  *Limit // nil: no limit
	site   string // the fault site every poll fires
	next   int    // the work at which Check next does more than compare
	share  int    // the work past which the meter next adds to limit
	shared int    // the run's work already added to limit
}

// Start readies m for a run under ctx, looking up ctx's limit once; every
// poll fires site.
func (m *Meter) Start(ctx context.Context, site string) {
	*m = Meter{site: site}
	if l, _ := ctx.Value(limitKey{}).(*Limit); l != nil {
		m.limit, m.share = l, min(ShareQuantum, l.max-l.Spent())
	}
}

// Check charges total, all the work the run has counted so far: one compare
// but on the first check, every Interval units and past the share point.
func (m *Meter) Check(ctx context.Context, total int) error {
	if total < m.next {
		return nil
	}
	return m.check(ctx, total)
}

// check fires the site and polls ctx, and past the share point adds the
// run's work to the limit, failing with ErrLimit once the limit's total is
// past it (a cancelled ctx wins). The next share point is ShareQuantum on,
// or the limit's end as the run now sees it, whichever is nearer.
func (m *Meter) check(ctx context.Context, total int) error {
	faultinject.Fire(m.site)
	if err := ctx.Err(); err != nil {
		return err
	}
	m.next = total + Interval
	if m.limit == nil {
		return nil
	}
	if total > m.share {
		spent := m.add(total)
		if spent > m.limit.max {
			return ErrLimit
		}
		m.share = total + min(ShareQuantum, m.limit.max-spent)
	}
	m.next = min(m.next, m.share+1)
	return nil
}

// Stop adds the run's work not yet added: a run that completes its counted
// work calls it once, with the final total.
func (m *Meter) Stop(total int) {
	if m.limit != nil {
		m.add(total)
	}
}

// add adds the run's work since its last addition and returns the limit's
// total.
func (m *Meter) add(total int) int {
	spent := int(m.limit.spent.Add(int64(total - m.shared)))
	m.shared = total
	return spent
}
