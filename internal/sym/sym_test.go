package sym

import (
	"math/big"
	"math/rand"
	"testing"
)

func TestZeroOneIdentity(t *testing.T) {
	in := NewEvaluator()
	if in.Zero() == in.One() {
		t.Fatal("Zero == One")
	}
	if in.Zero() != 0 || in.One() != 1 {
		t.Fatal("identities are not the field's 0 and 1")
	}
}

func TestVarInterning(t *testing.T) {
	in := NewEvaluator()
	a1 := in.Var("a")
	a2 := in.Var("a")
	b := in.Var("b")
	if a1 != a2 {
		t.Fatal("same var hashed differently")
	}
	if a1 == b {
		t.Fatal("distinct vars collided")
	}
}

func TestSumCanonicalization(t *testing.T) {
	in := NewEvaluator()
	a, b, w1, w2 := in.Var("a"), in.Var("b"), in.Var("w1"), in.Var("w2")
	s1 := in.Sum([]Term{{w1, a}, {w2, b}})
	s2 := in.Sum([]Term{{w2, b}, {w1, a}})
	if s1 != s2 {
		t.Fatal("sum not order-independent")
	}
	s3 := in.Sum([]Term{{w1, a}, {w2, a}})
	if s3 == s1 {
		t.Fatal("different sums collided")
	}
}

func TestSumDropsZeroTerms(t *testing.T) {
	in := NewEvaluator()
	a, w := in.Var("a"), in.Var("w")
	s := in.Sum([]Term{{w, a}, {w, in.Zero()}, {in.Zero(), a}})
	if s != in.Sum([]Term{{w, a}}) {
		t.Fatal("zero terms not dropped")
	}
	if in.Sum(nil) != in.Zero() {
		t.Fatal("empty sum != Zero")
	}
}

func TestSumSingleUnitTermCollapses(t *testing.T) {
	in := NewEvaluator()
	a := in.Var("a")
	if in.Sum([]Term{{in.One(), a}}) != a {
		t.Fatal("1*a did not collapse to a")
	}
	// But w*a must not collapse.
	w := in.Var("w")
	if in.Sum([]Term{{w, a}}) == a {
		t.Fatal("w*a collapsed incorrectly")
	}
}

func TestDuplicateTermsDistinctFromSingle(t *testing.T) {
	in := NewEvaluator()
	a, w := in.Var("a"), in.Var("w")
	one := in.Sum([]Term{{w, a}})
	two := in.Sum([]Term{{w, a}, {w, a}})
	if one == two {
		t.Fatal("w*a and 2*w*a collided")
	}
}

func TestAdd(t *testing.T) {
	in := NewEvaluator()
	a, b := in.Var("a"), in.Var("b")
	if in.Add(a, b) != in.Add(b, a) {
		t.Fatal("Add not commutative")
	}
	if in.Add(a, in.Zero()) != a {
		t.Fatal("a+0 != a")
	}
}

func TestMaxCanonicalization(t *testing.T) {
	in := NewEvaluator()
	a, b, c := in.Var("a"), in.Var("b"), in.Var("c")
	if in.Max([]ID{a, b, c}) != in.Max([]ID{c, a, b}) {
		t.Fatal("max not order-independent")
	}
	if in.Max([]ID{a, a, b}) != in.Max([]ID{a, b}) {
		t.Fatal("max duplicates not collapsed")
	}
	if in.Max([]ID{a}) != a {
		t.Fatal("max of one arg")
	}
	if in.Max([]ID{a, a}) != a {
		t.Fatal("max(a,a) != a")
	}
	if in.Max(nil) != in.Zero() {
		t.Fatal("empty max")
	}
}

func TestNestedStructuralEquality(t *testing.T) {
	in := NewEvaluator()
	a, b, w, v := in.Var("a"), in.Var("b"), in.Var("w"), in.Var("v")
	// Build the same nested expression twice through different paths.
	inner1 := in.Sum([]Term{{w, a}, {v, b}})
	inner2 := in.Sum([]Term{{v, b}, {w, a}})
	outer1 := in.Max([]ID{inner1, a})
	outer2 := in.Max([]ID{a, inner2})
	if outer1 != outer2 {
		t.Fatal("nested expressions not shared")
	}
}

// The cases below are where structural identity was stricter than
// polynomial identity: each pair is one polynomial built two ways.

func TestSumAssociative(t *testing.T) {
	in := NewEvaluator()
	a, b, c := in.Var("a"), in.Var("b"), in.Var("c")
	if in.Add(in.Add(a, b), c) != in.Add(a, in.Add(b, c)) {
		t.Fatal("(a+b)+c != a+(b+c)")
	}
	flat := in.Sum([]Term{{in.One(), a}, {in.One(), b}, {in.One(), c}})
	if flat != in.Add(in.Add(a, b), c) {
		t.Fatal("nested sum != flat sum")
	}
}

func TestProductDistributesOverSum(t *testing.T) {
	in := NewEvaluator()
	w, x, y := in.Var("w"), in.Var("x"), in.Var("y")
	lhs := in.Sum([]Term{{w, in.Add(x, y)}})
	rhs := in.Sum([]Term{{w, x}, {w, y}})
	if lhs != rhs {
		t.Fatal("w*(x+y) != w*x+w*y")
	}
}

func TestMaxOfPolynomiallyEqualArgs(t *testing.T) {
	in := NewEvaluator()
	a, b, c, w := in.Var("a"), in.Var("b"), in.Var("c"), in.Var("w")
	p := in.Sum([]Term{{w, a}})
	q := in.Add(in.Add(a, b), c)                                  // (a+b)+c
	q2 := in.Sum([]Term{{in.One(), in.Add(b, c)}, {in.One(), a}}) // (b+c)+a
	if in.Max([]ID{p, q}) != in.Max([]ID{q2, p}) {
		t.Fatal("max(p, q) != max(q', p) for q' = q as polynomials")
	}
	if in.Max([]ID{q, q2}) != q {
		t.Fatal("max(q, q') did not collapse to q")
	}
}

func TestMaxIsNotASum(t *testing.T) {
	in := NewEvaluator()
	a, b, c := in.Var("a"), in.Var("b"), in.Var("c")
	if in.Max([]ID{a, b}) == in.Add(a, b) {
		t.Fatal("max(a,b) collided with a+b")
	}
	if in.Max([]ID{a, b}) == in.Max([]ID{a, c}) {
		t.Fatal("max(a,b) collided with max(a,c)")
	}
	// max is uninterpreted: max(a,b)+c is not max(a+c, b+c).
	if in.Add(in.Max([]ID{a, b}), c) == in.Max([]ID{in.Add(a, c), in.Add(b, c)}) {
		t.Fatal("max distributed over +")
	}
}

func TestStatsCountsCells(t *testing.T) {
	in := NewEvaluator()
	a, b, w := in.Var("a"), in.Var("b"), in.Var("w")
	if got := in.Stats().Exprs; got != 0 {
		t.Fatalf("variables counted as cells: %d", got)
	}
	in.Sum([]Term{{w, a}})
	in.Add(a, b)
	in.Max([]ID{a, b})
	in.Sum([]Term{{w, a}}) // recomputed, counted again
	s := in.Stats()
	if s.Exprs != 4 {
		t.Fatalf("Exprs = %d, want 4 computed cells", s.Exprs)
	}
	if s.Hits != 0 || s.Misses != 0 || s.HitRate() != 0 {
		t.Fatalf("cache counters set without a cache: %+v", s)
	}
}

func TestFieldArithmeticMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := big.NewInt(P)
	edge := []ID{0, 1, 2, P - 1, P - 2, 1 << 60, P >> 1}
	for i := 0; i < 20000; i++ {
		var a, b ID
		if i < len(edge)*len(edge) {
			a, b = edge[i/len(edge)], edge[i%len(edge)]
		} else {
			a, b = ID(rng.Uint64()%P), ID(rng.Uint64()%P)
		}
		ba, bb := new(big.Int).SetUint64(uint64(a)), new(big.Int).SetUint64(uint64(b))
		if got, want := mulMod(a, b), new(big.Int).Mod(new(big.Int).Mul(ba, bb), p).Uint64(); uint64(got) != want {
			t.Fatalf("mulMod(%d, %d) = %d, want %d", a, b, got, want)
		}
		if got, want := addMod(a, b), new(big.Int).Mod(new(big.Int).Add(ba, bb), p).Uint64(); uint64(got) != want {
			t.Fatalf("addMod(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestVarsAvoidIdentities(t *testing.T) {
	in := NewEvaluator()
	seen := map[ID]string{}
	for i := 0; i < 5000; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('A'+i/260))
		v := in.Var(name)
		if v == in.Zero() || v == in.One() || v >= P {
			t.Fatalf("Var(%q) = %d is not a fresh field element", name, v)
		}
		if prev, ok := seen[v]; ok && prev != name {
			t.Fatalf("Var(%q) collided with Var(%q)", name, prev)
		}
		seen[v] = name
	}
}

func TestMultisetHash(t *testing.T) {
	in := NewEvaluator()
	a, b, c := in.Var("a"), in.Var("b"), in.Var("c")
	if MultisetHash([]ID{a, b, c}) != MultisetHash([]ID{c, a, b}) {
		t.Fatal("multiset hash depends on order")
	}
	if MultisetHash([]ID{a, a, b}) == MultisetHash([]ID{a, b, b}) {
		t.Fatal("multiplicities ignored")
	}
	if MultisetHash([]ID{a, b}) == MultisetHash([]ID{a, b, in.Zero()}) {
		t.Fatal("a zero cell did not change the multiset")
	}
}

func TestCombineIsOrderSensitive(t *testing.T) {
	if Combine([]uint64{1, 2}) == Combine([]uint64{2, 1}) {
		t.Fatal("Combine ignores order")
	}
	if Combine([]uint64{5}) == Combine([]uint64{5, 0}) {
		t.Fatal("Combine ignores length")
	}
}
