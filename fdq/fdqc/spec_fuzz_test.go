package fdqc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/fdq"
)

// specCatalog is FuzzSpecResolve's fixed catalog: R(a) = {1}; S(a,b), where
// a determines nothing; F(a,b), where a → b holds and b → a does not; and
// the ternary T.
func specCatalog(t testing.TB) *fdq.Catalog {
	cat := fdq.NewCatalog()
	for _, r := range []struct {
		name string
		cols []string
		rows [][]fdq.Value
	}{
		{"R", []string{"a"}, [][]fdq.Value{{1}}},
		{"S", []string{"a", "b"}, [][]fdq.Value{{1, 2}, {1, 5}, {1, 7}}},
		{"F", []string{"a", "b"}, [][]fdq.Value{{1, 2}, {2, 3}, {3, 1}, {5, 2}, {7, 7}}},
		{"T", []string{"a", "b", "c"}, [][]fdq.Value{{1, 2, 3}, {1, 5, 6}, {2, 3, 5}, {7, 7, 1}}},
	} {
		if err := cat.Define(r.name, r.cols, r.rows); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

var (
	specRels     = []string{"R", "S", "F", "T"}
	specArity    = map[string]int{"R": 1, "S": 2, "F": 2, "T": 3}
	specBuiltins = []string{"sum", "first", "last", "pair", "zero"}
)

// decodeSpec reads a QuerySpec off data, a byte at a time (0 once data runs
// out): the variable count (1-4) and atom count (1-3); per atom a catalog
// relation and a distinct variable per column (too few variables leave it
// short, an arity mismatch); the FD count (0-2); per FD a from and a to
// variable mask and its kind — a guard (then the guarding atom), a via
// builtin (then the builtin), or neither.
func decodeSpec(data []byte) *QuerySpec {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	spec := &QuerySpec{}
	for v := range 1 + next(4) {
		spec.Vars = append(spec.Vars, fmt.Sprintf("v%d", v))
	}
	vars := func(mask int) []string {
		var out []string
		for v, name := range spec.Vars {
			if mask&(1<<v) != 0 {
				out = append(out, name)
			}
		}
		return out
	}
	for range 1 + next(3) {
		r := RelSpec{Name: specRels[next(len(specRels))]}
		free := slices.Clone(spec.Vars) // an atom binds distinct variables
		for range min(specArity[r.Name], len(free)) {
			i := next(len(free))
			r.Vars = append(r.Vars, free[i])
			free = slices.Delete(free, i, i+1)
		}
		spec.Rels = append(spec.Rels, r)
	}
	for range next(3) {
		f := FDSpec{From: vars(next(1 << len(spec.Vars))), To: vars(next(1 << len(spec.Vars)))}
		switch next(3) {
		case 0:
			f.Guard = spec.Rels[next(len(spec.Rels))].Name
		case 1:
			f.Via = specBuiltins[next(len(specBuiltins))]
		}
		spec.FDs = append(spec.FDs, f)
	}
	return spec
}

// FuzzSpecResolve holds the wire spec's resolve path to "refused, or right":
// a spec either is refused at resolve — Explain and Collect return the same
// error — or its Collect under auto, generic and binary, at one and three
// workers, returns the same rows, no more than the auto run's certified
// LogBound allows. A panic or a run-time error fails either way.
func FuzzSpecResolve(f *testing.F) {
	// x -> z that nothing guards or computes, over S(x,y): z is in the FD
	// closure but no executor can derive it.
	f.Add([]byte{2, 0, 1, 0, 0, 1, 1, 4, 2})
	// x -> y that nothing guards or computes, over R(x), S(x,y): the bound
	// assumes it, but S holds three y-values for x = 1.
	f.Add([]byte{1, 1, 0, 0, 1, 0, 1, 1, 1, 2, 2})
	// x -> y guarded by F, over F(x,y), T(x,y,z).
	f.Add([]byte{2, 1, 2, 0, 0, 3, 0, 0, 0, 1, 1, 2, 0, 0})
	// x y -> z computed by sum, over S(x,y).
	f.Add([]byte{2, 0, 1, 0, 0, 1, 3, 4, 1, 0})
	// x -> y guarded by S, which violates it.
	f.Add([]byte{1, 0, 1, 0, 1, 1, 1, 2, 0, 0})
	cat := specCatalog(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeSpec(data)
		sess := cat.Session()
		ctx := context.Background()
		run := func(alg string, workers int) ([][]fdq.Value, *fdq.RunStats, error) {
			s := *spec
			s.Alg, s.Workers = alg, workers
			q, _ := s.Query() // a construction error is deferred into the session calls
			rows, err := sess.Query(ctx, q)
			if err != nil {
				return nil, nil, err
			}
			defer rows.Close()
			var out [][]fdq.Value
			for rows.Next() {
				out = append(out, append([]fdq.Value(nil), rows.Row()...))
			}
			return out, rows.Stats(), rows.Err()
		}
		q, _ := spec.Query()
		if _, exErr := sess.Explain(q); exErr != nil {
			var pe *fdq.PanicError
			if errors.As(exErr, &pe) {
				t.Fatalf("spec %+v: Explain panicked: %v", spec, exErr)
			}
			if _, err := sess.Collect(ctx, q); err == nil || err.Error() != exErr.Error() {
				t.Fatalf("spec %+v: Explain refused it (%v), Collect returned %v", spec, exErr, err)
			}
			return
		}
		want, st, err := run("auto", 1)
		if err != nil {
			t.Fatalf("spec %+v resolved, auto run failed: %v", spec, err)
		}
		if n := len(want); math.IsNaN(st.LogBound) || (n > 0 && math.Log2(float64(n)) > st.LogBound+1e-9) {
			t.Fatalf("spec %+v: %d rows over the certified LogBound %v", spec, n, st.LogBound)
		}
		for _, alg := range []string{"auto", "generic", "binary"} {
			for _, workers := range []int{1, 3} {
				got, _, err := run(alg, workers)
				if err != nil {
					t.Fatalf("spec %+v resolved, %s at %d workers failed: %v", spec, alg, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("spec %+v: %s at %d workers returned %v, auto at 1 %v", spec, alg, workers, got, want)
				}
			}
		}
	})
}
