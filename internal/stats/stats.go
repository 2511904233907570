// Package stats provides the statistical toolkit of the evaluation (§6):
// summary statistics, the Pearson correlation coefficient used to relate
// throughput and stall counts, power-law samplers for the social-network
// workload, and small hashing helpers shared by the benchmarks.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Pearson returns the Pearson correlation coefficient between a and b, the
// metric §6.2 uses to relate throughput to cycle_activity.stalls_total. It
// returns an error when the series lengths differ, are shorter than two, or
// either series is constant (undefined correlation).
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: series lengths differ (%d vs %d)", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 samples, have %d", len(a))
	}
	ma, mb := Mean(a), Mean(b)
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0, fmt.Errorf("stats: constant series, correlation undefined")
	}
	return cov / math.Sqrt(va*vb), nil
}

// PowerLawDegrees samples n degrees following a truncated discrete power law
// P(d) ∝ d^(-gamma) over [1, maxDeg], the degree model of the social-graph
// generator (§6.3, after Schweimer et al.).
func PowerLawDegrees(n, maxDeg int, gamma float64, seed int64) []int {
	if maxDeg < 1 {
		maxDeg = 1
	}
	// Inverse-CDF sampling over the discrete support.
	weights := make([]float64, maxDeg+1)
	total := 0.0
	for d := 1; d <= maxDeg; d++ {
		w := math.Pow(float64(d), -gamma)
		total += w
		weights[d] = total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * total
		// Binary search the CDF.
		lo, hi := 1, maxDeg
		for lo < hi {
			mid := (lo + hi) / 2
			if weights[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

// Hash64 mixes a 64-bit integer (splitmix64 finalizer); used for key routing
// in the segmented structures and benchmarks.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes a string with FNV-1a, then mixes.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Hash64(h)
}
