//go:build !race

package segment_test

import (
	"runtime"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// TestSegmentedChurnRetention pins what churn over fresh keys costs: a
// removed key keeps its node, and so its binding, for as long as the map
// lives. It inserts 4096 fresh int keys and removes them all, 50 rounds
// over, and reads HeapAlloc after GC. On amd64 the hash map retains 31.8 B
// per removed key (its node, a sixteenth of a 512 B slab) and the skip list
// 67.4 B (its node, a ninth of a slab of 56 B nodes in the 512 B size class,
// and its tower); each ceiling is that figure plus 10 %. Reclaiming removed nodes lowers
// both. The race detector allocates on its own, hence the build tag.
func TestSegmentedChurnRetention(t *testing.T) {
	const keys, rounds = 4096, 50
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			r := core.NewRegistry(1)
			h := r.MustRegister()
			m := rep.build(r, 2*keys, false)
			before := heap()
			for round := range rounds {
				base := round * keys
				for k := base; k < base+keys; k++ {
					m.Put(h, k, k)
				}
				for k := base; k < base+keys; k++ {
					m.Remove(h, k)
				}
			}
			after := heap()
			if m.Len() != 0 {
				t.Fatalf("Len = %d after removing every key", m.Len())
			}
			perKey := (float64(after) - float64(before)) / (keys * rounds)
			t.Logf("%.1f B retained per removed key", perKey)
			if perKey > rep.retained {
				t.Errorf("%.1f B retained per removed key, ceiling %.1f", perKey, rep.retained)
			}
		})
	}
}
