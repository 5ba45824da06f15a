package fdq_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/fdq"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/scenario"
)

// fromInternal defines qq's relations in a fresh catalog and renders qq on
// the public builder: guarded FDs by guard name, computed ones as UDFs (one
// declaration per target, which has the same closure), degree bounds as they
// are.
func fromInternal(t *testing.T, qq *query.Q) (*fdq.Catalog, *fdq.Q) {
	t.Helper()
	names := func(vars []int) []string {
		out := make([]string, len(vars))
		for i, v := range vars {
			out[i] = qq.Names[v]
		}
		return out
	}
	cat := fdq.NewCatalog()
	q := fdq.Query().Vars(qq.Names...)
	for _, r := range qq.Rels {
		rows := make([][]fdq.Value, r.Len())
		for i := range rows {
			rows[i] = slices.Clone(r.Row(i))
		}
		if err := cat.Define(r.Name, names(r.Attrs), rows); err != nil {
			t.Fatal(err)
		}
		q.Rel(r.Name, names(r.Attrs)...)
	}
	for i, f := range qq.FDs.FDs {
		from := strings.Join(names(f.From.Members()), " ")
		if f.Guarded() {
			q.FD(qq.Rels[f.Guard].Name, from, strings.Join(names(f.To.Members()), " "))
			continue
		}
		for _, v := range f.To.Members() {
			q.UDF(fmt.Sprintf("fd%d.%s", i, qq.Names[v]), from, qq.Names[v], f.Fns[v])
		}
	}
	for _, d := range qq.DegreeBounds {
		q.Degree(qq.Rels[d.Guard].Name, strings.Join(names(d.X.Members()), " "),
			strings.Join(names(d.Y.Members()), " "), d.MaxDegree)
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	return cat, q
}

func scenarioQuery(t *testing.T, family string, size int) *query.Q {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == family {
			return f.Build(scenario.Params{Size: size, Seed: 1})
		}
	}
	t.Fatalf("unknown scenario family %q", family)
	return nil
}

// TestCollectRowsAreCallerOwned: Collect returns views over storage that is
// the caller's alone — the collector's, which an executor fills row by row or
// hands over as a relation it built itself (rel.Stream adopts it), never one
// the catalog, the instance's prepared record or a cache still reads. For one
// instance per algorithm the planner can pick, one forced to the binary plan
// (which the planner never picks), and a one-relation query whose answer is
// its input, scribbling over every returned value and appending to rows
// changes nothing the warm session answers afterwards.
func TestCollectRowsAreCallerOwned(t *testing.T) {
	ctx := context.Background()
	oneRel := query.New("x", "y")
	oneRel.AddRel(scenarioQuery(t, "motif/path", 128).Rels[0])
	planned := map[string]bool{}
	for _, tc := range []struct {
		name string
		qq   *query.Q
		alg  string // forced algorithm; "" plans it
	}{
		{"paper/fig1-quasi@256", scenarioQuery(t, "paper/fig1-quasi", 256), ""},
		{"paper/colored-triangle@256", scenarioQuery(t, "paper/colored-triangle", 256), ""},
		{"paper/degree-triangle@512", scenarioQuery(t, "paper/degree-triangle", 512), ""},
		{"paper/triangle-product@8", scenarioQuery(t, "paper/triangle-product", 8), ""},
		{"skew/zipf-triangle@16", scenarioQuery(t, "skew/zipf-triangle", 16), "binary"},
		{"one relation", oneRel, ""},
	} {
		cat, q := fromInternal(t, tc.qq)
		if tc.alg != "" {
			q = q.Alg(tc.alg)
		}
		sess := cat.Session()
		ex, err := sess.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		planned[ex.Algorithm] = true
		ref := naive.Evaluate(tc.qq)
		same := func(when string, got [][]fdq.Value) {
			t.Helper()
			if len(got) != ref.Len() {
				t.Fatalf("%s (%s) %s: %d rows, reference %d", tc.name, ex.Algorithm, when, len(got), ref.Len())
			}
			for i, row := range got {
				if !slices.Equal(row, ref.Row(i)) {
					t.Fatalf("%s (%s) %s: row %d is %v, reference %v", tc.name, ex.Algorithm, when, i, row, ref.Row(i))
				}
			}
		}
		first, err := sess.Collect(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		same("first Collect", first)
		if len(first) == 0 {
			t.Fatalf("%s: empty answer: the test proves nothing", tc.name)
		}
		for i, row := range first {
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d of %d has spare capacity %d: an append would write into its neighbour", tc.name, i, len(first), cap(row)-len(row))
			}
		}
		_ = append(first[0], -7)
		_ = append(first[len(first)-1], -7)
		for _, row := range first {
			for i := range row {
				row[i] = -7
			}
		}
		again, err := sess.Collect(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		same("Collect after the first answer was overwritten", again)
		if n, err := sess.Count(ctx, q); err != nil || n != ref.Len() {
			t.Fatalf("%s: Count after the overwrite: %d, %v; reference %d", tc.name, n, err, ref.Len())
		}
		rows, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var streamed [][]fdq.Value
		for rows.Next() {
			streamed = append(streamed, slices.Clone(rows.Row()))
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		same("Query after the overwrite", streamed)
	}
	for _, alg := range []string{"chain", "sm", "csma", "generic", "binary"} {
		if !planned[alg] {
			t.Errorf("no instance was planned or forced to %s (got %v)", alg, planned)
		}
	}
}

// TestStatsSayWhatRan: Explain reports the planner's certificate and a run's
// stats the algorithm that produced its rows. On Fig. 4 the SM plan's
// generic-join attempt fits its budget, so generic join answers; on
// Example 5.8's skew instance it overruns and the chain algorithm answers.
func TestStatsSayWhatRan(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		qq        *query.Q
		plan, ran string
	}{
		{"paper/fig4@216", scenarioQuery(t, "paper/fig4", 216), "sm", "generic"},
		{"Fig1Skew(2048)", paper.Fig1Skew(2048), "chain", "chain"},
	} {
		cat, q := fromInternal(t, tc.qq)
		q.Workers(1) // the attempt is made on the sequential path
		sess := cat.Session()
		ex, err := sess.Explain(q)
		if err != nil || ex.Algorithm != tc.plan {
			t.Fatalf("%s: Explain says %q (%v), want %q", tc.name, ex.Algorithm, err, tc.plan)
		}
		rows, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil || n != naive.Evaluate(tc.qq).Len() {
			t.Fatalf("%s: %d rows, %v", tc.name, n, err)
		}
		if got := rows.Stats().Algorithm; got != tc.ran {
			t.Fatalf("%s: Rows.Stats().Algorithm says %q, want %q", tc.name, got, tc.ran)
		}
	}
}

// TestBudgetsOnGenericJoinTripAtTheSameRow: the governor's row budget and a
// caller's Limit wrap the collector, so generic join pushes them row by row
// and they stop where they always did: the budget fails the query after
// exactly its rows, a Limit truncates silently, and Count — a bare counter,
// taking runs — is exempt from the row budget and sees every row.
func TestBudgetsOnGenericJoinTripAtTheSameRow(t *testing.T) {
	ctx := context.Background()
	cat, q := fromInternal(t, scenarioQuery(t, "paper/triangle-product", 32))
	q.Workers(1) // the sequential descent, not the morsel scheduler's sinks
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxRows(1000))))
	if ex, err := sess.Explain(q); err != nil || ex.Algorithm != "generic" {
		t.Fatalf("planned to %+v, %v; want generic join", ex, err)
	}
	_, err := sess.Collect(ctx, q)
	var re *fdq.RowsExceededError
	if !errors.As(err, &re) || re.Limit != 1000 {
		t.Fatalf("Collect over the row budget: %v", err)
	}
	rows, err := sess.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, fdq.ErrRowsExceeded) || n != 1000 {
		t.Fatalf("iterator over the row budget: %d rows, %v; want 1000 and ErrRowsExceeded", n, err)
	}
	got, err := sess.Collect(ctx, q.Limit(999))
	if err != nil || len(got) != 999 || !slices.Equal(got[998], []fdq.Value{0, 31, 6}) {
		t.Fatalf("LIMIT 999 under the budget: %d rows, %v", len(got), err)
	}
	if n, err := sess.Count(ctx, q.Limit(0)); err != nil || n != 32*32*32 {
		t.Fatalf("Count is exempt from the row budget: %d, %v", n, err)
	}
	mem := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxMemory(1000))))
	_, err = mem.Collect(ctx, q)
	var me *fdq.MemoryExceededError
	if !errors.As(err, &me) || me.Limit != 1000 || me.Used != 1008 {
		t.Fatalf("Collect over the memory budget: %v", err)
	}
}

// TestCollectAllocations is the allocation ceiling of a warm Collect on
// paper/triangle-product@32 (32³ rows of three values, 786 kB): the answer is
// written once into storage that doubles and returned as views over it. With
// a 1.25 × growth and a second flat copy it took 87 allocations and 5.4 MB.
func TestCollectAllocations(t *testing.T) {
	ctx := context.Background()
	cat, q := fromInternal(t, scenarioQuery(t, "paper/triangle-product", 32))
	q.Workers(1)
	sess := cat.Session()
	run := func() {
		if got, err := sess.Collect(ctx, q); err != nil || len(got) != 32*32*32 {
			t.Fatalf("%d rows, %v", len(got), err)
		}
	}
	run() // plans, binds, builds the tries
	if n := testing.AllocsPerRun(10, run); n > 70 {
		t.Errorf("a warm Collect allocates %v times, want at most 70", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 3.2 {
		t.Errorf("a warm Collect allocates %.2f MB, want at most 3.2", mb)
	}
}
