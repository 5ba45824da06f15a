package fdq

import "testing"

// TestSignatureKey pins the prepared-cache key of an FD-heavy shape (guarded
// FDs, UDFs with several targets, degree bounds with a three-digit limit)
// and holds its construction to the one allocation of the key itself: every
// Collect, Count and Query builds it.
func TestSignatureKey(t *testing.T) {
	first := func(args []Value) Value { return args[0] }
	q := Query().Vars("a", "b", "c", "d", "e").
		Rel("R", "a", "b").Rel("S", "b", "c").Rel("T", "c", "d", "e").Rel("R", "d", "e").
		FD("R", "a", "b").FD("T", "c d", "e").
		UDF("first", "a b", "c", first).UDF("spread", "c", "d e", first).
		Degree("T", "c", "c d", 300).Degree("S", "b", "b c", 7)
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	const want = "v=a,b,c,d,e;r=R(a,b);r=S(b,c);r=T(c,d,e);r=R(d,e)" +
		";fd=R:a>b;fd=T:c,d>e;udf=first:a,b>c;udf=spread:c>d,e" +
		";deg=T:c>c,d:300;deg=S:b>b,c:7"
	if got := q.signature(); got != want {
		t.Fatalf("signature\n got %s\nwant %s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = q.signature() }); n > 1 {
		t.Fatalf("signature makes %v allocations, want at most 1", n)
	}
}
