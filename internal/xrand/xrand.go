// Package xrand provides the deterministic random-number utilities used by
// every simulated substrate: splittable seeded streams and the handful of
// distributions the workload and service models need.
//
// Determinism contract: a Rand constructed with the same seed always yields
// the same sequence, and Split derives independent child streams from a
// parent seed and a label, so adding a new consumer of randomness in one
// module never perturbs the draws seen by another.
package xrand

import (
	"math"
	"math/rand/v2"
)

// Rand is a deterministic random stream. It wraps the stdlib PCG generator
// with the distribution helpers the simulators need. The underlying PCG is
// kept alongside the *rand.Rand so a stream can be reseeded in place (see
// Reseed): neither rand.Rand nor the distribution methods used here carry
// state beyond the source, so reseeding the PCG fully resets the stream.
type Rand struct {
	src *rand.Rand
	pcg *rand.PCG
}

// New returns a stream seeded with seed.
func New(seed uint64) *Rand {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Rand{src: rand.New(pcg), pcg: pcg}
}

// Reseed resets the stream in place to the exact state New(seed) would
// produce, without allocating. Hot paths that cycle one pooled Rand through
// many per-entity streams (one request after another) use this instead of
// constructing a fresh Rand per entity.
func (r *Rand) Reseed(seed uint64) {
	r.pcg.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// fnv-64a parameters, matching hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds the eight little-endian bytes of v into an fnv-64a hash.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// fnvString folds a string into an fnv-64a hash.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// splitSeed is the derivation behind Split: fnv-64a over the parent seed's
// little-endian bytes followed by the label.
func splitSeed(seed uint64, label string) uint64 {
	return fnvString(fnvUint64(fnvOffset64, seed), label)
}

// splitSeedN is the derivation behind SplitN: splitSeed extended with the
// index's little-endian bytes.
func splitSeedN(seed uint64, label string, n int) uint64 {
	return fnvUint64(splitSeed(seed, label), uint64(n))
}

// Split derives an independent child stream from seed and a label. Streams
// derived with different labels are statistically independent, and the
// derivation is stable across runs.
func Split(seed uint64, label string) *Rand {
	return New(splitSeed(seed, label))
}

// SplitN derives an independent child stream from seed, a label, and an
// index, for per-entity streams (per core, per thread, per node, ...).
func SplitN(seed uint64, label string, n int) *Rand {
	return New(splitSeedN(seed, label, n))
}

// ReseedSplitN resets the stream in place to the exact state
// SplitN(seed, label, n) would produce, without allocating.
func (r *Rand) ReseedSplitN(seed uint64, label string, n int) {
	r.Reseed(splitSeedN(seed, label, n))
}

// SplitHash is an incrementally built Split label hash. It lets a caller
// that would otherwise concatenate strings into a Split label ("a/"+b+
// "#"+strconv.Itoa(n)) hash the pieces in place instead: appending the
// same bytes piecewise yields the same derived seed as hashing the
// concatenated label, so BeginSplit(...).String(...).Int(...) is the
// allocation-free twin of Split(seed, label).
type SplitHash uint64

// BeginSplit starts a label hash over the parent seed, equivalent to
// Split's derivation before any label bytes.
func BeginSplit(seed uint64) SplitHash {
	return SplitHash(fnvUint64(fnvOffset64, seed))
}

// String folds label bytes into the hash.
func (h SplitHash) String(s string) SplitHash {
	return SplitHash(fnvString(uint64(h), s))
}

// Int folds the decimal representation of n into the hash — the same
// bytes fmt.Sprintf("%d", n) would contribute to a concatenated label.
func (h SplitHash) Int(n int64) SplitHash {
	var buf [20]byte
	i := len(buf)
	u := uint64(n)
	neg := n < 0
	if neg {
		u = uint64(-n)
	}
	for {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
		if u == 0 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	g := uint64(h)
	for ; i < len(buf); i++ {
		g ^= uint64(buf[i])
		g *= fnvPrime64
	}
	return SplitHash(g)
}

// ReseedSplit resets the stream in place to the state Split would produce
// for the label accumulated in h.
func (r *Rand) ReseedSplit(h SplitHash) {
	r.Reseed(uint64(h))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Int64N returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int64N(n int64) int64 { return r.src.Int64N(n) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// LogNormalParams converts the mean and coefficient of variation
// (stddev/mean) of a log-normal distribution to the (mu, sigma) of its
// underlying normal, which LogNormalMS draws from. Log-normal service
// times are the standard model for request processing in datacenter
// services; computing the pair once keeps the logarithms off hot paths
// that draw from a fixed distribution many times. A zero mean gives
// mu = -Inf, so every draw is 0.
func LogNormalParams(mean, cv float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + cv*cv)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// LogNormalMS returns a log-normally distributed value from precomputed
// (mu, sigma); see LogNormalParams.
func (r *Rand) LogNormalMS(mu, sigma float64) float64 {
	return math.Exp(r.src.NormFloat64()*sigma + mu)
}

// Pareto returns a bounded Pareto-distributed value with minimum xm and
// shape alpha. Heavy-tailed distributions model the occasional very long
// request or context-switch period.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Gamma returns a gamma-distributed value with the given shape k and
// scale theta (mean k·theta), via Marsaglia-Tsang squeeze rejection.
// Gamma inter-arrival times with k < 1 model bursty request streams
// (CV = 1/sqrt(k) > 1); k > 1 models smoothed streams.
func (r *Rand) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: G(k) = G(k+1) · U^(1/k).
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a Weibull-distributed value with the given shape k and
// scale lambda, by inverse transform. Shape < 1 gives heavy-tailed
// inter-arrival gaps (clustered arrivals); shape > 1 regularizes them.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// WeightedPick returns an index into weights chosen with probability
// proportional to the weight. It panics if weights is empty or sums to a
// non-positive value.
func (r *Rand) WeightedPick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: WeightedPick with non-positive total weight")
	}
	x := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Jitter returns v multiplied by a uniform factor in [1-amp, 1+amp].
func (r *Rand) Jitter(v, amp float64) float64 {
	return v * (1 + amp*(2*r.src.Float64()-1))
}
