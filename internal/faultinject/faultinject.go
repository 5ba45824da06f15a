// Package faultinject is a hook-based fault injector for robustness
// testing: production code calls Fire(site) at a handful of named sites
// (trie descent, partition workers and merge, sink push, cache eviction —
// see the Site* constants), and a test or the oracle's fault mode arms a
// site with a Fault describing what to do there — panic, delay, or
// allocation pressure.
//
// When nothing is armed — the only state production code ever sees — Fire
// is a single atomic load and a return, so the hooks are safe to leave in
// hot paths that already amortize work (every site below a cancellation
// check shares its cadence). Arm/Reset/Hits serialize on one mutex and are
// safe for concurrent use with Fire.
//
// Injected panics carry an Injected value naming the site, so recover
// layers (engine.PanicError, fdq.PanicError) let tests assert that the
// failure that surfaced is exactly the one that was injected.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Canonical site names. A site constant is the single point of agreement
// between the Fire call in production code and the oracle's fault matrix;
// keep the list in sync with DESIGN.md ("Resource governance").
const (
	// SiteTrieDescent fires inside wcoj's generic-join descent, on the
	// same cadence as its cancellation check.
	SiteTrieDescent = "wcoj/trie-descent"
	// SitePartitionWorker fires at the top of every parallel partition
	// worker goroutine, before the partition executes.
	SitePartitionWorker = "engine/partition-worker"
	// SiteMorselQueue fires on a morsel worker right after it dequeues a
	// morsel (own share or stolen), before the morsel executes.
	SiteMorselQueue = "engine/morsel-queue"
	// SiteStreamMerge fires on the emitting goroutine just before a
	// completed morsel run (or the final tournament merge) streams into
	// the sink.
	SiteStreamMerge = "engine/stream-merge"
	// SiteSinkPush fires in rel.BlockSink.Push, on every row — the streaming
	// delivery path behind fdq.Rows.
	SiteSinkPush = "rel/sink-push"
	// SiteCacheEvict fires when a session's prepared-shape LRU evicts an
	// entry.
	SiteCacheEvict = "fdq/cache-evict"
)

// Sites lists every canonical site, in stable order — the oracle's fault
// matrix iterates this.
func Sites() []string {
	return []string{SiteTrieDescent, SitePartitionWorker, SiteMorselQueue, SiteStreamMerge, SiteSinkPush, SiteCacheEvict}
}

// Kind selects what an armed site does when it fires.
type Kind int

const (
	// KindPanic panics with an Injected value naming the site.
	KindPanic Kind = iota
	// KindDelay sleeps for Fault.Delay.
	KindDelay
	// KindAlloc allocates and retains Fault.Bytes of touched memory
	// (released by Reset), simulating allocation pressure at the site.
	KindAlloc
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindAlloc:
		return "alloc"
	}
	return "unknown"
}

// Fault describes what an armed site does.
type Fault struct {
	Kind  Kind
	After int           // skip the first After hits before acting
	Times int           // act at most Times times (0 = every hit after After)
	Delay time.Duration // KindDelay: sleep duration
	Bytes int           // KindAlloc: bytes to allocate and retain
}

// Injected is the value a KindPanic fault panics with, so recover layers
// can tell an injected panic from a real bug.
type Injected struct{ Site string }

func (i Injected) String() string { return "faultinject: injected panic at " + i.Site }

var (
	armed   atomic.Bool
	mu      sync.Mutex
	sites   map[string]*siteState
	ballast [][]byte // KindAlloc retentions, dropped by Reset
)

type siteState struct {
	f     Fault
	hits  int
	acted int
}

// Arm installs (or replaces) the fault plan for a site.
func Arm(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = map[string]*siteState{}
	}
	sites[site] = &siteState{f: f}
	armed.Store(true)
}

// Reset disarms every site, zeroes hit counters, and releases any
// allocation ballast.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	sites = nil
	ballast = nil
}

// Hits reports how many times an armed site has been reached (acting or
// not). Zero for sites that are not armed.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[site]; s != nil {
		return s.hits
	}
	return 0
}

// Fire is the production-side hook: a no-op unless the site is armed.
func Fire(site string) {
	if !armed.Load() {
		return
	}
	fire(site)
}

func fire(site string) {
	mu.Lock()
	s := sites[site]
	if s == nil {
		mu.Unlock()
		return
	}
	s.hits++
	if s.hits <= s.f.After || (s.f.Times > 0 && s.acted >= s.f.Times) {
		mu.Unlock()
		return
	}
	s.acted++
	f := s.f
	if f.Kind == KindAlloc && f.Bytes > 0 {
		b := make([]byte, f.Bytes)
		for i := 0; i < len(b); i += 512 {
			b[i] = byte(i) // touch pages so the pressure is real
		}
		ballast = append(ballast, b)
	}
	// Unlock before acting: a panic must not leave the registry locked, and
	// a delay must not serialize unrelated sites.
	mu.Unlock()
	switch f.Kind {
	case KindPanic:
		panic(Injected{Site: site})
	case KindDelay:
		time.Sleep(f.Delay)
	}
}
