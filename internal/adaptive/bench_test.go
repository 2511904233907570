package adaptive

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// BenchmarkMap is the layer benchmark of the adaptive map: Get and Put of
// present keys from one goroutine over 16 k keys in one range, in each
// steady state. Quiescent reads and writes the striped map alone. Promoted
// is taken after ForcePromote with every other key rewritten, so half the
// Gets hit a shadow in the segmented map and half fall through to the
// frozen backing. Sampling is disabled so the lone writer cannot demote the
// promoted map mid-run.
func BenchmarkMap(b *testing.B) {
	const keys = 16 << 10
	for _, state := range []State{StateQuiescent, StatePromoted} {
		r := core.NewRegistry(4)
		h := r.MustRegister()
		m := NewMap[int, int](r, 256, keys, 2*keys, 1, intHash, Policy{SampleEvery: 1 << 62})
		for k := range keys {
			m.Put(h, k, k)
		}
		if state == StatePromoted {
			m.ForcePromote()
			for k := 0; k < keys; k += 2 {
				m.Put(h, k, -k)
			}
		}
		b.Run(state.String()+"/Get", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				m.Get(i & (keys - 1))
			}
		})
		b.Run(state.String()+"/Put", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				m.Put(h, i&(keys-1), i)
			}
		})
	}
}
