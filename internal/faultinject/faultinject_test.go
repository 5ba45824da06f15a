package faultinject

import (
	"testing"
	"time"
)

func TestDisarmedFireIsNoop(t *testing.T) {
	Reset()
	Fire("nothing/armed") // must not panic, block, or register hits
	if got := Hits("nothing/armed"); got != 0 {
		t.Fatalf("disarmed site recorded %d hits", got)
	}
}

func TestPanicCarriesSite(t *testing.T) {
	defer Reset()
	Arm("a/site", Fault{Kind: KindPanic})
	defer func() {
		p := recover()
		inj, ok := p.(Injected)
		if !ok {
			t.Fatalf("panic value %#v is not Injected", p)
		}
		if inj.Site != "a/site" {
			t.Fatalf("injected site = %q, want a/site", inj.Site)
		}
	}()
	Fire("a/site")
	t.Fatal("Fire did not panic")
}

func TestAfterAndTimes(t *testing.T) {
	defer Reset()
	Arm("b/site", Fault{Kind: KindPanic, After: 2, Times: 1})
	Fire("b/site") // hit 1: skipped
	Fire("b/site") // hit 2: skipped
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		Fire("b/site")
		return false
	}
	if !panicked() {
		t.Fatal("hit 3 should have acted")
	}
	// Times=1 exhausted: further hits are recorded but do not act.
	Fire("b/site")
	if got := Hits("b/site"); got != 4 {
		t.Fatalf("hits = %d, want 4", got)
	}
}

func TestDelayAndAlloc(t *testing.T) {
	defer Reset()
	Arm("c/delay", Fault{Kind: KindDelay, Delay: 5 * time.Millisecond})
	t0 := time.Now()
	Fire("c/delay")
	if d := time.Since(t0); d < 5*time.Millisecond {
		t.Fatalf("delay fault slept %v, want ≥ 5ms", d)
	}
	Arm("c/alloc", Fault{Kind: KindAlloc, Bytes: 1 << 16})
	Fire("c/alloc") // must not panic; ballast retained until Reset
	Reset()
	if armed.Load() {
		t.Fatal("Reset left the injector armed")
	}
}

func TestConcurrentFire(t *testing.T) {
	defer Reset()
	Arm("d/site", Fault{Kind: KindDelay, Delay: 0})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				Fire("d/site")
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := Hits("d/site"); got != 800 {
		t.Fatalf("hits = %d, want 800", got)
	}
}

func TestSitesAndStrings(t *testing.T) {
	sites := Sites()
	if len(sites) != 6 {
		t.Fatalf("want 6 canonical sites, got %v", sites)
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
	}
	for k, want := range map[Kind]string{KindPanic: "panic", KindDelay: "delay", KindAlloc: "alloc", Kind(9): "unknown"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	inj := Injected{Site: SiteSinkPush}
	if got := inj.String(); got != "faultinject: injected panic at rel/sink-push" {
		t.Errorf("Injected.String() = %q", got)
	}
}
