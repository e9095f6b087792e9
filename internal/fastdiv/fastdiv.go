// Package fastdiv implements strength-reduced division and modulo by a
// runtime-constant divisor. The simulator's hottest paths — cache set
// indexing and DRAM address mapping — divide every access by geometry
// parameters that are fixed at construction but unknown to the compiler
// (the Table I LLC has 49152 sets, a non-power-of-two), so each probe pays
// for hardware integer division. A Divisor precomputes either a shift/mask
// (power-of-two divisors) or a fixed-point reciprocal (Lemire's round-up
// method, via math/bits.Mul64) and replaces the division with a multiply.
package fastdiv

import "math/bits"

// magicMax bounds the operand range on which the reciprocal path is exact:
// with a 64-bit magic number, Lemire's method is exact for all n, d < 2^32.
// Larger operands (never produced by the simulator's line indices, but
// possible through the public API) fall back to hardware division.
const magicMax = 1 << 32

// Divisor divides by a fixed non-zero value without hardware division.
// The zero value is invalid; build one with New.
type Divisor struct {
	d     uint64
	magic uint64 // ceil(2^64 / d); used when pow2 is false
	shift uint   // log2(d); used when pow2 is true
	pow2  bool
}

// New prepares a Divisor for d. It panics on a zero divisor and falls back
// to hardware division for divisors >= 2^32 (no simulator geometry comes
// close).
func New(d uint64) Divisor {
	if d == 0 {
		panic("fastdiv: zero divisor")
	}
	if d&(d-1) == 0 {
		return Divisor{d: d, shift: uint(bits.TrailingZeros64(d)), pow2: true}
	}
	if d >= magicMax {
		return Divisor{d: d}
	}
	// Round-up reciprocal: since d is not a power of two it does not
	// divide 2^64, so ceil(2^64/d) = floor((2^64-1)/d) + 1.
	return Divisor{d: d, magic: ^uint64(0)/d + 1}
}

// Div returns n / d.
func (v Divisor) Div(n uint64) uint64 {
	if v.pow2 {
		return n >> v.shift
	}
	if n >= magicMax || v.magic == 0 {
		return n / v.d
	}
	q, _ := bits.Mul64(v.magic, n)
	return q
}

// Mod returns n % d.
func (v Divisor) Mod(n uint64) uint64 {
	if v.pow2 {
		return n & (v.d - 1)
	}
	if n >= magicMax || v.magic == 0 {
		return n % v.d
	}
	// Lemire's fastmod: the fractional part of n/d, scaled to 2^64, times
	// d, truncated, is exactly the remainder for n, d < 2^32.
	frac := v.magic * n
	r, _ := bits.Mul64(frac, v.d)
	return r
}

// DivMod returns n / d and n % d with one reciprocal multiply.
func (v Divisor) DivMod(n uint64) (q, r uint64) {
	if v.pow2 {
		return n >> v.shift, n & (v.d - 1)
	}
	if n >= magicMax || v.magic == 0 {
		return n / v.d, n % v.d
	}
	q, _ = bits.Mul64(v.magic, n)
	return q, n - q*v.d
}
