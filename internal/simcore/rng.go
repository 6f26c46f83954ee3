package simcore

import "math"

// RNG is a small, fast, seedable random number generator (SplitMix64 core)
// used for every stochastic component in the simulator: random packet loss,
// bandwidth traces, exploration noise, and network-weight initialization.
// Each component owns its own RNG so that enabling one source of randomness
// never perturbs another — experiments stay reproducible bit-for-bit.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child generator. Children with distinct
// labels produce uncorrelated streams.
func (r *RNG) Split(label uint64) *RNG {
	return &RNG{state: r.nextUint64() ^ (label * 0x9e3779b97f4a7c15)}
}

// SplitValue is Split returning the child by value, for embedding in
// bulk-allocated structures without one heap allocation per child. It
// consumes the identical parent draw as Split, so swapping one for the
// other leaves every derived random stream bit-identical.
func (r *RNG) SplitValue(label uint64) RNG {
	return RNG{state: r.nextUint64() ^ (label * 0x9e3779b97f4a7c15)}
}

func (r *RNG) nextUint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.nextUint64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simcore: Intn with non-positive n")
	}
	return int(r.nextUint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.nextUint64()>>11) / (1 << 53)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Norm returns a normal sample with the given mean and standard deviation.
func (r *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential sample with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
