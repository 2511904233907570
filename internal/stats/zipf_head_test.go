package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfianHeadTable checks the head table against the loop body it
// stands for: no draw that can reach a rank past the head is served from the
// table; every tabled interval holds the body's outcome at its ends and at
// points inside it; and the draws left to the body outside the tail are
// only the guard bands, so every cut point is where the body's outcome
// changes (a misplaced one leaves a wide interval whose ends disagree).
func TestZipfianHeadTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 256, 257, 50_000, 100_000} {
		for _, alpha := range []float64{0.5, 1, 2} {
			z := NewZipfian(n, alpha, 42)
			ri := &z.ri
			tail := -1.0 // no rank past the head
			if ri.imax >= headRanks {
				tail = (ri.h(headRanks-0.5) - ri.hxm) / ri.hx0minusHxm
			}
			lo, body := 0.0, 0.0
			for i, hi := range z.upper {
				o := z.out[i]
				if o == outExact {
					body += max(hi-max(lo, tail), 0)
					lo = hi
					continue
				}
				if lo <= tail {
					t.Fatalf("n=%d alpha=%g: [%g, %g) reaches the tail (r < %g) but is served from the table", n, alpha, lo, hi, tail)
				}
				for j := range 66 {
					r := lo + (hi-lo)*rng.Float64()
					switch j {
					case 0:
						r = lo
					case 1:
						r = math.Nextafter(hi, lo)
					}
					k, ok := ri.try(r)
					if want := int16(k); !ok && o != outReject || ok && o != want {
						t.Fatalf("n=%d alpha=%g: [%g, %g) holds %d, the body at %g gives %d (ok %v)", n, alpha, lo, hi, o, r, k, ok)
					}
				}
				lo = hi
			}
			if body > 1e-6 {
				t.Errorf("n=%d alpha=%g: %.3g of the head's draws run the loop body", n, alpha, body)
			}
		}
	}
}
