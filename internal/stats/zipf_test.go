package stats

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestZipfianMatchesRandZipf holds the tabled sampler to its contract: the
// same values as rand.Zipf over the same seed, draw for draw. The grid takes
// n past the table's 256 ranks on both sides (n ≤ 256 has no tail) and
// alpha from nearly uniform, where most draws fall past the head, to a
// skew where rank 0 takes nearly every draw and the other ranks share
// intervals far narrower than the guard bands.
func TestZipfianMatchesRandZipf(t *testing.T) {
	const draws = 200_000
	for _, n := range []int{1, 2, 3, 255, 256, 257, 10_000, 50_000, 100_000} {
		for _, alpha := range []float64{0.02, 0.5, 1, 2, 7} {
			for _, seed := range []int64{42, 7} {
				t.Run(fmt.Sprintf("n=%d/alpha=%g/seed=%d", n, alpha, seed), func(t *testing.T) {
					t.Parallel()
					z := NewZipfian(n, alpha, seed)
					ref := rand.NewZipf(rand.New(rand.NewSource(seed)), 1+alpha, 1, uint64(n-1))
					for i := range draws {
						if got, want := z.Next(), int(ref.Uint64()); got != want {
							t.Fatalf("draw %d: %d, rand.Zipf drew %d", i, got, want)
						}
					}
				})
			}
		}
	}
}

// BenchmarkZipfian times one draw at alpha = 1 over the two sampler sizes of
// the lib_table2 run (a worker's 50 000 users and all 100 000), and one
// uniform draw.
func BenchmarkZipfian(b *testing.B) {
	for _, bc := range []struct {
		name  string
		n     int
		alpha float64
	}{
		{"n=50000", 50_000, 1},
		{"n=100000", 100_000, 1},
		{"uniform", 100_000, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			z := NewZipfian(bc.n, bc.alpha, 42)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for range b.N {
				sum += z.Next()
			}
			sink = sum
		})
	}
}

var sink int
