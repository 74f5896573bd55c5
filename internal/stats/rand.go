package stats

import (
	"math"
)

// Rand is a small, fast, deterministic PRNG (splitmix64) used everywhere a
// seeded stream is needed. We implement it directly rather than using
// math/rand so that generated webs are bit-identical across Go releases —
// the experiment tables cmd/experiments prints depend on that stability.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator from this one, labelled by tag.
// Forking lets each site/script get its own stream so inserting a new
// random draw in one place does not perturb every later site.
func (r *Rand) Fork(tag uint64) *Rand {
	return NewRand(r.Uint64() ^ (tag * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

// Zipf samples from {0,...,n-1} with probability proportional to
// 1/(i+1)^s. It is used for third-party popularity: a handful of tag
// managers and analytics scripts appear on a large share of sites (the _ga
// column of Table 2) while a long tail appears rarely.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank.
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Poisson returns a Poisson variate with mean lambda (Knuth's algorithm;
// fine for the small lambdas used by the generator).
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // safety; unreachable for sane lambda
		}
	}
}

// Pick returns a uniformly chosen element of xs. Panics on empty input.
func Pick[T any](r *Rand, xs []T) T {
	return xs[r.Intn(len(xs))]
}
