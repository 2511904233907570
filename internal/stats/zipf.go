package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Zipfian samples integers in [0, n) with the power-law skew of §6.3:
// P(k) ∝ (k+1)^−(1+alpha). alpha near 0 approaches uniform; at alpha = 1
// rank 0 takes 1/ζ(2) ≈ 61 % of the draws once n is in the thousands, and
// larger alpha concentrates further.
//
// The skewed draws are exactly those of rand.NewZipf(rng, 1+alpha, 1, n−1)
// over rand.New(rand.NewSource(seed)), draw for draw, at about a fifth of
// the cost: each sampler serves one fixed (n, alpha), so it resolves the
// head of the distribution into a table once (see buildHead) and pays an
// exp and a log only in the tail and near the table's cut points.
type Zipfian struct {
	rng *rand.Rand
	n   uint64
	uni bool
	ri  rejectionInversion

	// The head table partitions [0, 1) into intervals of the uniform draw:
	// interval i is [upper[i-1], upper[i]) and out[i] is what one iteration
	// of the sampling loop does for every draw in it. bucket[b] is the
	// interval holding b/headBuckets, where the search starts.
	bucket [headBuckets]uint16
	upper  []float64
	out    []int16
}

const (
	// headRanks is how many ranks the table resolves. At alpha = 1 they
	// take all but ≈ 0.24 % of the draws.
	headRanks = 256
	// headBuckets is the size of the index into the table.
	headBuckets = 4096
	// headGuard is the relative width, in the loop's ur, of the band around
	// each cut point where the table defers to the loop body. The body's
	// rounding, a few ulps amplified by at most 1/alpha ≤ 100 through hinv,
	// is orders of magnitude narrower, so outside the band the outcome is
	// settled.
	headGuard = 1e-9
)

// What a table interval holds besides a rank.
const (
	outReject int16 = -1 // the iteration rejects: draw again
	outExact  int16 = -2 // run the loop body on the draw
)

// NewZipfian creates a sampler over [0, n) with skew alpha and the given
// seed. alpha ≤ 0.01 degrades to the uniform distribution (rand.Zipf
// requires s > 1, so the skew parameter is mapped to s = 1 + alpha).
func NewZipfian(n int, alpha float64, seed int64) *Zipfian {
	if n <= 0 {
		panic("stats: Zipfian needs n > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	z := &Zipfian{rng: rng, n: uint64(n)}
	if alpha <= 0.01 {
		z.uni = true
		return z
	}
	z.ri = newRejectionInversion(1+alpha, 1, uint64(n-1))
	z.buildHead()
	return z
}

// Next samples the next value in [0, n).
func (z *Zipfian) Next() int {
	if z.uni {
		return int(z.rng.Int63n(int64(z.n)))
	}
	for {
		r := z.rng.Float64()
		i := int(z.bucket[int(r*headBuckets)])
		for r >= z.upper[i] {
			i++
		}
		switch o := z.out[i]; o {
		case outReject:
		case outExact:
			if k, ok := z.ri.try(r); ok {
				return int(k)
			}
		default:
			return int(o)
		}
	}
}

// buildHead tables one iteration of the sampling loop over the head ranks.
// For a uniform draw r the iteration computes ur = hxm + r·hx0minusHxm, which
// falls as r grows, and x = hinv(ur); it returns k = ⌊x+0.5⌋ when
// k − x ≤ s or when ur ≥ h(k+0.5) − (k+v)^−q, and rejects otherwise. Its
// outcome is therefore a step function of r, which changes only where ur
// crosses one of three points per rank j: h(j+0.5), where k passes from j
// to j+1; h(j−s), where k − x ≤ s starts to hold for k = j; and the
// squeeze bound h(j+0.5) − (j+v)^−q. Each point gets a guard band where the
// body runs as it is, and so do all draws that can reach a rank past the
// head. Every other interval takes the outcome of its midpoint, checked at
// both of its ends; an interval whose three disagree runs the body too.
func (z *Zipfian) buildHead() {
	ri := &z.ri
	head := min(headRanks, ri.imax+1)
	toR := func(ur float64) float64 { return (ur - ri.hxm) / ri.hx0minusHxm }

	type band struct{ lo, hi float64 }
	bands := make([]band, 0, 3*headRanks+1)
	guard := func(ur float64) {
		d := headGuard * math.Abs(ur)
		b := band{max(toR(ur+d), 0), min(toR(ur-d), 1)}
		if b.lo < b.hi { // false too for a NaN point
			bands = append(bands, b)
		}
	}
	for j := 0.0; j < head; j++ {
		guard(ri.h(j + 0.5))
		guard(ri.h(j - ri.s))
		guard(ri.h(j+0.5) - math.Exp(-math.Log(j+ri.v)*ri.q))
	}
	tail := ri.h(head - 0.5) // ranks ≥ head lie at ur above it
	bands = append(bands, band{0, min(toR(tail-headGuard*math.Abs(tail)), 1)})
	sort.Slice(bands, func(a, b int) bool { return bands[a].lo < bands[b].lo })

	add := func(hi float64, o int16) {
		if n := len(z.out); n > 0 && z.out[n-1] == o {
			z.upper[n-1] = hi
			return
		}
		z.upper = append(z.upper, hi)
		z.out = append(z.out, o)
	}
	at := 0.0
	for _, b := range bands {
		if b.lo > at {
			add(b.lo, z.step(at, b.lo, head))
		}
		if b.hi > at {
			add(b.hi, outExact)
			at = b.hi
		}
	}
	if at < 1 {
		add(1, z.step(at, 1, head))
	}

	i := 0
	for b := range z.bucket {
		for float64(b)/headBuckets >= z.upper[i] {
			i++
		}
		z.bucket[b] = uint16(i)
	}
}

// step returns the outcome of the interval [lo, hi), which holds no cut
// point: the outcome at its midpoint if both ends agree with it, else
// outExact.
func (z *Zipfian) step(lo, hi, head float64) int16 {
	at := func(r float64) int16 {
		k, ok := z.ri.try(r)
		switch {
		case !ok:
			return outReject
		case float64(k) >= head:
			return outExact
		}
		return int16(k)
	}
	o := at(lo + (hi-lo)/2)
	if at(lo) != o || at(math.Nextafter(hi, lo)) != o {
		return outExact
	}
	return o
}

// rejectionInversion holds the constants of rand.Zipf, which draws k in
// [0, imax] with P(k) ∝ (v+k)^−q by rejection-inversion (W. Hörmann and
// G. Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions", 1996). newRejectionInversion, h, hinv and try are
// copied from Go's math/rand/zipf.go (Copyright 2009 The Go Authors; BSD
// license) with every floating-point expression unchanged, so that they
// compute bit for bit what rand.Zipf computes.
type rejectionInversion struct {
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

func newRejectionInversion(s float64, v float64, imax uint64) rejectionInversion {
	var z rejectionInversion
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *rejectionInversion) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *rejectionInversion) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// try is one iteration of rand.Zipf.Uint64's loop on the uniform draw r:
// the rank, or ok == false when the iteration rejects r.
func (z *rejectionInversion) try(r float64) (k uint64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	kf := math.Floor(x + 0.5)
	if kf-x <= z.s {
		return uint64(kf), true
	}
	if ur >= z.h(kf+0.5)-math.Exp(-math.Log(kf+z.v)*z.q) {
		return uint64(kf), true
	}
	return 0, false
}
