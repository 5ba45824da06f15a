package exact

import (
	"cmp"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Rat returns x as a new *big.Rat.
func (x Num) Rat() *big.Rat { return x.SetRat(new(big.Rat)) }

func br(s string) *big.Rat {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic("bad rational " + s)
	}
	return r
}

func num(s string) Num { return FromRat(br(s)) }

// check requires x to equal want exactly and to be in the one representation
// its value allows: small iff it fits, lowest terms, positive denominator.
func check(t *testing.T, what string, x Num, want *big.Rat) {
	t.Helper()
	if got := x.Rat(); got.Cmp(want) != 0 {
		t.Fatalf("%s = %s, want %s", what, got.RatString(), want.RatString())
	}
	_, fits := small(want)
	if (x.r == nil) != fits {
		t.Fatalf("%s = %s: small form %v, but the value fits: %v", what, want.RatString(), (x.r == nil), fits)
	}
	if x.r == nil {
		if x.n == math.MinInt64 || x.den() < 1 || gcd(abs(x.n), uint64(x.den())) != 1 && x.n != 0 {
			t.Fatalf("%s: small form %d/%d not normalized", what, x.n, x.d)
		}
	}
}

const (
	two62 = "4611686018427387904"
	max64 = "9223372036854775807"
	two63 = "9223372036854775808"
	min64 = "-9223372036854775808"
	two52 = "4503599627370496"
)

func TestRepresentationBoundary(t *testing.T) {
	for _, tc := range []struct {
		s     string
		small bool
	}{
		{"0", true}, {"-1", true}, {"7/3", true},
		{max64, true}, {"-" + max64, true},
		{min64, false}, // kept out of the small form so that Neg cannot overflow
		{two63, false},
		{"1/" + max64, true}, {"1/" + two63, false},
		{"3/" + two52, true},
	} {
		x := num(tc.s)
		if (x.r == nil) != tc.small {
			t.Errorf("%s: IsSmall = %v, want %v", tc.s, (x.r == nil), tc.small)
		}
		check(t, tc.s, x, br(tc.s))
	}
	check(t, "Int(MinInt64)", Int(math.MinInt64), br(min64))
	check(t, "Int(-5)", Int(-5), br("-5"))
	var zero Num
	check(t, "zero value", zero, new(big.Rat))
	if !zero.IsZero() || zero.Sign() != 0 {
		t.Fatal("zero value is not zero")
	}
}

// FromRat must not retain its argument, and SetRat/Rat must not hand out
// the shared wide value.
func TestNoAliasing(t *testing.T) {
	r := br(two63)
	x := FromRat(r)
	r.SetInt64(1)
	check(t, "after mutating the source", x, br(two63))
	out := x.Rat()
	out.SetInt64(2)
	check(t, "after mutating the result", x, br(two63))
}

func TestArithmeticAtTheEdges(t *testing.T) {
	type op func(a, b Num) Num
	add := func(a, b Num) Num { return a.Add(b) }
	mul := func(a, b Num) Num { return a.Mul(b) }
	quo := func(a, b Num) Num { return a.Quo(b) }
	for _, tc := range []struct {
		name string
		f    op
		a, b string
		want string
	}{
		// sums crossing ±2^63 spill; the way back shrinks
		{"max+1 spills", add, max64, "1", two63},
		{"-max-1 spills to MinInt64", add, "-" + max64, "-1", min64},
		{"2^63-1 shrinks", add, two63, "-1", max64},
		{"min+1 shrinks", add, min64, "1", "-" + max64},
		{"wide+wide cancels to zero", add, two63, min64, "0"},
		{"max+max", add, max64, max64, "18446744073709551614"},
		// products crossing 2^63
		{"2^62*2 spills", mul, two62, "2", two63},
		{"2^62*-2 is MinInt64", mul, two62, "-2", min64},
		{"2^63/2 shrinks", quo, two63, "2", two62},
		{"2^32*2^31", mul, "4294967296", "2147483648", two63},
		{"2^32*2^30", mul, "4294967296", "1073741824", two62},
		{"cross-cancel avoids the spill", mul, max64 + "/3", "3/" + max64, "1"},
		{"cross-cancel then fits", mul, two62 + "/5", "10", "9223372036854775808/1"},
		// 53-bit dyadic denominators, as query.LogRat produces
		{"dyadic sum same den", add, "3/" + two52, "5/" + two52, "1/562949953421312"},
		{"dyadic sum", add, "1/" + two52, "1/2", "2251799813685249/" + two52},
		{"dyadic product spills", mul, "3/" + two52, "5/" + two52, "15/20282409603651670423947251286016"},
		{"dyadic product back", mul, "15/20282409603651670423947251286016", two52, "15/" + two52},
		{"denominator overflow in add", add, "1/" + max64, "1/2", "9223372036854775809/18446744073709551614"},
		{"knuth gcd path", add, "1/6", "1/10", "4/15"},
		{"sum to zero", add, "7/9", "-7/9", "0"},
		// inverses and quotients of negatives
		{"quo by negative", quo, "3", "-6", "-1/2"},
		{"quo of negatives", quo, "-3/4", "-9/8", "2/3"},
		{"quo wide by negative", quo, two63, "-1", min64},
	} {
		got := tc.f(num(tc.a), num(tc.b))
		check(t, tc.name, got, br(tc.want))
	}
}

func TestNegInv(t *testing.T) {
	check(t, "neg max", num(max64).Neg(), br("-"+max64))
	check(t, "neg wide", num(two63).Neg(), br(min64))
	check(t, "neg MinInt64", num(min64).Neg(), br(two63))
	check(t, "neg zero value", Num{}.Neg(), new(big.Rat))
	check(t, "inv -3/7", num("-3/7").Inv(), br("-7/3"))
	check(t, "inv -1", num("-1").Inv(), br("-1"))
	check(t, "inv max", num(max64).Inv(), br("1/"+max64))
	check(t, "inv -1/max", num("-1/"+max64).Inv(), br("-"+max64))
	check(t, "inv wide", num(min64).Inv(), br("-1/"+two63))
	check(t, "inv of wide denominator", num("1/"+two63).Inv(), br(two63))
	for _, f := range []func(){
		func() { Num{}.Inv() },
		func() { num("1").Quo(Num{}) },
		func() { num(two63).Quo(Num{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("division by zero did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSubMul(t *testing.T) {
	for _, tc := range []struct{ x, f, p, want string }{
		{"1", "1", "1", "0"},
		{"0", "-1", "1", "1"},
		{"5", "0", two63, "5"},
		{"1/2", "1/3", "3/4", "1/4"},
		{max64, "-1", "1", two63}, // sum spills
		{"0", two62, "2", min64},  // product spills, result wide
		{"1", two62, "4", "-18446744073709551615"},
		{two63, "1", "1", max64}, // wide in, small out
		{two63, two62, "2", "0"}, // both wide, cancel
		{"1/" + two52, "1/" + two52, "1", "0"},
	} {
		got := num(tc.x).SubMul(num(tc.f), num(tc.p))
		check(t, tc.x+" - "+tc.f+"*"+tc.p, got, br(tc.want))
	}
}

// Cmp's small path compares 128-bit cross products; these pairs differ only
// beyond what a 64-bit product or a float64 could tell apart.
func TestCmp(t *testing.T) {
	ordered := []string{
		min64, "-" + max64, "-" + two62, "-3", "-7/3",
		"-" + max64 + "/9223372036854775806", "-1", "-1/" + max64, "0",
		"1/" + two63, "1/" + max64, "1/9223372036854775806", "1/" + two52,
		"9223372036854775805/9223372036854775806", "9223372036854775806/" + max64, "1",
		max64 + "/9223372036854775806", "7/3", two62, max64, two63,
	}
	for i, a := range ordered {
		for j, b := range ordered {
			want := cmp.Compare(i, j)
			if got := num(a).Cmp(num(b)); got != want {
				t.Errorf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
			}
			if got, want := num(a).Cmp(num(b)), br(a).Cmp(br(b)); got != want {
				t.Errorf("Cmp(%s, %s) = %d, big.Rat says %d", a, b, got, want)
			}
		}
	}
	if (Num{}).Cmp(Int(0)) != 0 {
		t.Error("zero value != Int(0)")
	}
}

// TestRandomAgainstBigRat walks random expressions over values clustered at
// the representation boundary and requires every intermediate to equal the
// big.Rat computation and to be canonically represented.
func TestRandomAgainstBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []string{"0", "1", "-1", "2", "-3", "1/2", "-2/3", "5/7", two62, "-" + two62,
		max64, "-" + max64, two63, min64, "1/" + two52, "-3/" + two52,
		"6369051672525773/" + two52, "1/" + max64, "3037000499", "-3037000500", "4294967296"}
	spills := 0
	for trial := 0; trial < 20000; trial++ {
		a, b, c := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		x, y, z := num(a), num(b), num(c)
		bx, by, bz := br(a), br(b), br(c)
		check(t, a+"+"+b, x.Add(y), new(big.Rat).Add(bx, by))
		prod := x.Mul(y)
		check(t, a+"*"+b, prod, new(big.Rat).Mul(bx, by))
		if prod.r != nil {
			spills++
		}
		if !y.IsZero() {
			check(t, a+"/"+b, x.Quo(y), new(big.Rat).Quo(bx, by))
			// spill then shrink: (x·y)/y is x again, in x's representation
			check(t, "("+a+"*"+b+")/"+b, prod.Quo(y), bx)
		}
		want := new(big.Rat).Mul(by, bz)
		check(t, a+"-"+b+"*"+c, x.SubMul(y, z), want.Sub(bx, want))
		if got, want := x.Cmp(y), bx.Cmp(by); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
	}
	if spills == 0 {
		t.Fatal("no product spilled: the pool no longer reaches the wide form")
	}
}
