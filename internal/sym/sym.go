// Package sym provides the symbolic expressions behind the paper's symbolic
// convolution engine (§6.2). Expressions are built from free variables
// (generic weights, biases, probe values), weighted sums, max nodes and
// activations, and the engine only ever asks one question of them: are two
// expressions equal for generic weights?
//
// Each expression is represented by its fingerprint (an ID): its value at a
// fixed pseudo-random point of the prime field GF(P), P = 2⁶¹−1. A
// variable's value is a deterministic hash of its name and a sum is
// evaluated by field arithmetic. Max and activations are uninterpreted
// functions: their value is a hash of their (sorted, deduplicated)
// arguments. Equal expressions therefore have equal IDs; by the
// Schwartz–Zippel lemma two different polynomials of degree d share an ID
// with probability at most d/P. Nothing is stored per expression, so memory
// is O(live grids) rather than O(every expression ever built).
//
// Polynomial identity is coarser than structural identity — (a+b)+c and
// a+(b+c) are one expression — but never wrong: expressions it merges are
// equal as functions, so they have equal values and equal nnz. Expressions
// that differ as polynomials but agree numerically are exactly the
// one-sided observability error the attack already tolerates (§5.4).
package sym

import (
	"math/bits"
	"slices"
)

// P is the Mersenne prime 2⁶¹−1, the modulus of the fingerprint field.
const P = 1<<61 - 1

// ID is an expression's fingerprint, an element of GF(P). IDs are
// deterministic: the same expression has the same ID in every Evaluator and
// every process.
type ID uint64

// Term is one coef·x summand of a Sum expression.
type Term struct {
	Coef ID
	X    ID
}

// Evaluator computes fingerprints and counts the compound values it
// computes — the symbolic engine's deterministic work counter.
type Evaluator struct {
	cells   int
	maxArgs []ID // scratch for Max
}

// NewEvaluator returns an evaluator with a zero work counter.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// Zero is the additive identity (the implicit padding value).
func (e *Evaluator) Zero() ID { return 0 }

// One is the multiplicative identity (used as the x of bias terms).
func (e *Evaluator) One() ID { return 1 }

// mix is the splitmix64 finalizer, a bijective 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// toField maps a 64-bit hash into GF(P) \ {0, 1}, so no hashed value is
// ever the identity Zero or One.
func toField(h uint64) ID { return ID(h%(P-2) + 2) }

func addMod(a, b ID) ID {
	r := a + b
	if r >= P {
		r -= P
	}
	return r
}

func mulMod(a, b ID) ID {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// a·b = hi·2⁶⁴ + lo and 2⁶¹ ≡ 1, so a·b ≡ (lo mod 2⁶¹) + (a·b >> 61).
	r := ID(lo&P) + ID(hi<<3|lo>>61)
	if r >= P {
		r -= P
	}
	return r
}

// Var returns the expression for the named free variable: an FNV-1a hash
// of the name, mixed and mapped into the field.
func (e *Evaluator) Var(name string) ID {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return toField(mix(h))
}

// Sum returns Σ coef·x over the given terms. Term order, zero terms and a
// lone 1·x term need no special handling: the field arithmetic gives the
// same value the canonical form would.
func (e *Evaluator) Sum(terms []Term) ID {
	e.cells++
	var acc ID
	for _, t := range terms {
		acc = addMod(acc, mulMod(t.Coef, t.X))
	}
	return acc
}

// Add returns x + y.
func (e *Evaluator) Add(x, y ID) ID {
	e.cells++
	return addMod(x, y)
}

// Max returns max over the arguments as an uninterpreted function: equal
// arguments collapse (max(a,a)=a), argument order does not matter, a single
// distinct argument is returned as-is, and max of no arguments is Zero.
// Otherwise the value is a hash of the sorted distinct arguments.
func (e *Evaluator) Max(args []ID) ID {
	e.cells++
	if len(args) == 0 {
		return e.Zero()
	}
	uniq := append(e.maxArgs[:0], args...)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	e.maxArgs = uniq
	if len(uniq) == 1 {
		return uniq[0]
	}
	h := uint64(0x6d6178) // "max"
	for _, a := range uniq {
		h = mix(h ^ uint64(a))
	}
	return toField(h)
}

// Act returns f(x) for the uninterpreted injective function f that stands
// for a layer's elementwise nonlinearity (BatchNorm's affine map, then
// ReLU). Linear identities stop at f: f(a)+f(b) and f(a+b) are different
// expressions, as they are different values in the network, while
// f(x) = f(y) exactly when x = y.
func (e *Evaluator) Act(x ID) ID {
	e.cells++
	return toField(mix(uint64(x) ^ 0x616374)) // "act"
}

// MultisetHash returns an order-free fingerprint of a multiset of IDs:
// Π (r − x) over GF(P) at a fixed point r. Two different multisets of n IDs
// give different degree-n polynomials in r, so they share a hash with
// probability at most n/P.
func MultisetHash(ids []ID) uint64 {
	const r = 0x1d5c_a1e3_f00d_b17 // any fixed element of GF(P)
	acc := ID(1)
	for _, x := range ids {
		acc = mulMod(acc, addMod(r, P-x))
	}
	return uint64(acc)
}

// Combine folds a sequence of fingerprints into one, order-sensitively
// (Horner evaluation at a fixed point): sequences that differ anywhere
// differ in the result except with probability at most len/P.
func Combine(hs []uint64) uint64 {
	const r = 0x0bad_cafe_1234_567
	acc := ID(1) // a nonzero start makes leading zeros count
	for _, h := range hs {
		acc = addMod(mulMod(acc, r), ID(h%P))
	}
	return uint64(acc)
}

// Stats is the evaluator's work snapshot.
type Stats struct {
	// Exprs counts the compound values (Sum, Add, Act and Max results)
	// computed:
	// the cells the symbolic engine evaluated. It depends only on the code
	// path, so it gates tightly.
	Exprs int
	// Hits and Misses are always zero: fingerprints are computed, never
	// looked up, so there is no cache to hit.
	Hits   uint64
	Misses uint64
}

// HitRate is always 0: there is no cache.
func (s Stats) HitRate() float64 { return 0 }

// Stats returns the evaluator's current counters.
func (e *Evaluator) Stats() Stats { return Stats{Exprs: e.cells} }
