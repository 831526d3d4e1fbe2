package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so a spread computed here matches one computed from the printed results.
// One sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0-100) of xs by nearest rank, or
// 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The tolerance keeps p·n/100 = 999.0000000000001 at rank 999.
	k := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// mix derives an independent 64-bit seed from a seed and a sequence of
// labels, so every window, round and program draws from its own stream
// however many others ran before it.
func mix(seed uint64, labels ...uint64) uint64 {
	h := seed
	for _, l := range labels {
		h = splitmix(h ^ splitmix(l))
	}
	return h
}

// splitmix is the splitmix64 output function, a bijection on uint64.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
