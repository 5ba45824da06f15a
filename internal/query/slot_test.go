package query

import (
	"sync"
	"testing"

	"repro/internal/rel"
)

// sized returns a query over unary relations of the given sizes on store s,
// so that queries of different arity can reach one store.
func sized(s *qstate, sizes ...int) *Q {
	q := &Q{state: s}
	for _, n := range sizes {
		r := rel.New("R", 0)
		for i := 0; i < n; i++ {
			r.Add(int64(i))
		}
		q.Rels = append(q.Rels, r)
	}
	return q
}

func newInt(*Q) *int { return new(int) }

func TestSlotConcurrentFirstGetsShareOneValue(t *testing.T) {
	s := NewSlot[*int]()
	q := sized(&qstate{}, 3, 5)
	got := make([]*int, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = s.Get(q, newInt)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got its own build: the first store must win", i)
		}
	}
	if v := s.Get(q.WithFreshRels(q.Rels), newInt); v != got[0] {
		t.Fatal("an instance of the same shape and sizes built its own value")
	}
}

func TestSlotKeysSizeVectorsApart(t *testing.T) {
	st := &qstate{}
	s, other := NewSlot[*int](), NewSlot[*int]()
	seen := map[*int]bool{}
	for _, sizes := range [][]int{{1, 23}, {12, 3}, {1, 2, 3}} {
		q := sized(st, sizes...)
		v := s.Get(q, newInt)
		if other.Get(q, newInt) == v {
			t.Fatalf("sizes %v: two slots of one record share a value", sizes)
		}
		seen[v] = true
	}
	if len(st.plans) != 3 || len(seen) != 3 {
		t.Fatalf("(1, 23), (12, 3) and (1, 2, 3) made %d records and %d values, want 3 and 3", len(st.plans), len(seen))
	}
}

func TestSlotStoreResetsAtCap(t *testing.T) {
	st := &qstate{}
	s := NewSlot[*int]()
	first := s.Get(sized(st, 0), newInt)
	for n := 1; n < planRecordMax; n++ {
		s.Get(sized(st, n), newInt)
	}
	if len(st.plans) != planRecordMax {
		t.Fatalf("%d records, want %d", len(st.plans), planRecordMax)
	}
	s.Get(sized(st, planRecordMax), newInt)
	if len(st.plans) != 1 {
		t.Fatalf("%d records after the cap, want the store reset to 1", len(st.plans))
	}
	if s.Get(sized(st, 0), newInt) == first {
		t.Fatal("a record survived the reset")
	}
}

func TestSlotHitAllocatesNothing(t *testing.T) {
	s := NewSlot[*int]()
	q := sized(&qstate{}, 200, 20000, 3, 0) // one-, two- and three-byte varints
	want := s.Get(q, newInt)
	if n := testing.AllocsPerRun(100, func() {
		if s.Get(q, newInt) != want {
			t.Fatal("hit returned another value")
		}
	}); n != 0 {
		t.Fatalf("a hit allocated %v times, want 0", n)
	}
}

func TestSlotRecordsGoWithTheShape(t *testing.T) {
	q := New("x")
	q.AddRel(rel.New("R", 0))
	NewSlot[*int]().Get(q, newInt)
	q.AddRel(rel.New("S", 0))
	if q.state.plans != nil {
		t.Fatal("the plan records survived AddRel")
	}
}
