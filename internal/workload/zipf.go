package workload

import "math"

// Zipf samples ranks in [0, n) with popularity rank^-theta for theta in
// (0,1), using the Gray et al. incremental method popularized by YCSB.
// math/rand's Zipf requires s > 1, so the paper's 0.99 skew needs this
// implementation. Sampling is a pure function of the caller-provided
// uniform variate, keeping request streams deterministic in the packet tag.
type Zipf struct {
	n        uint64
	theta    float64
	alpha    float64
	zetan    float64
	eta      float64
	half     float64 // 0.5^theta
	scramble bool
}

// NewZipf builds a generator over n items with skew theta in (0,1). When
// scramble is true, ranks are hashed so popular items spread uniformly over
// the key space (YCSB's "scrambled zipfian"), which is how KVS hot keys
// behave in practice.
func NewZipf(n uint64, theta float64, scramble bool) *Zipf {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, scramble: scramble}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = math.Pow(0.5, theta)
	return z
}

// tableIZeta is zetaSum(2_400_000, 0.99), the normalizer of the paper's
// 2.4M-key zipf(0.99) store: the loop's own sum, bits 0x403066c46f8111de,
// as computed on linux/amd64 with go1.24.0. Every KVS build needs it, and
// the sum costs 2.4M math.Pow calls; TestTableIZeta recomputes it bit for
// bit, since a changed last bit would move the ranks behind every KVS golden.
const tableIZeta = 0x1.066c46f8111dep+04

// zeta returns the zipf normalizer sum_{i=1..n} i^-theta.
func zeta(n uint64, theta float64) float64 {
	if n == 2_400_000 && theta == 0.99 {
		return tableIZeta
	}
	return zetaSum(n, theta)
}

// zetaSum computes the normalizer term by term, in rank order.
func zetaSum(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// N returns the domain size.
func (z *Zipf) N() uint64 { return z.n }

// Rank maps a uniform variate u in [0,1) to a zipf-distributed rank in
// [0, n): rank 0 is the most popular (before scrambling).
func (z *Zipf) Rank(u float64) uint64 {
	uz := u * z.zetan
	var r uint64
	switch {
	case uz < 1:
		r = 0
	case uz < 1+z.half:
		r = 1
	default:
		r = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if r >= z.n {
			r = z.n - 1
		}
	}
	if z.scramble {
		r = splitmix64(r) % z.n
	}
	return r
}

// Sample derives a rank deterministically from an arbitrary 64-bit tag.
func (z *Zipf) Sample(tag uint64) uint64 {
	return z.Rank(unitFloat(splitmix64(tag)))
}
