package flatmap

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// These tests pin the family's defining property: within the constructed
// capacity, the hot paths allocate nothing — no nodes, no boxes, no
// rehash. testing.AllocsPerRun would report fractional allocations if any
// path slipped one in.

func TestShardedSteadyStateAllocs(t *testing.T) {
	m := NewSharded[int64](8, 1024)
	for k := uint64(1); k <= 1024; k++ {
		m.Put(k, int64(k))
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Put(42, 7)      // update in place
		m.Get(42)         // hit
		m.Get(1 << 40)    // miss
		m.Contains(9)     // hit
		m.Remove(1 << 41) // absent
		m.Put(1<<42, 1)   // fresh insert within capacity...
		m.Remove(1 << 42) // ...and its backward-shift delete
	}); n != 0 {
		t.Fatalf("sharded map steady state allocates %.1f/op-batch, want 0", n)
	}
}

func TestSWMRMapSteadyStateAllocs(t *testing.T) {
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	m := NewMap[int64](1024, true) // checked: the guard is on the hot path too
	for k := uint64(1); k <= 1024; k++ {
		m.Put(h, k, int64(k))
	}
	if n := testing.AllocsPerRun(1000, func() {
		m.Put(h, 42, 7)
		m.Get(42)
		m.Contains(9)
		m.Put(h, 1<<42, 1)
		m.Remove(h, 1<<42)
	}); n != 0 {
		t.Fatalf("SWMR map steady state allocates %.1f/op-batch, want 0", n)
	}
}

func TestSetSteadyStateAllocs(t *testing.T) {
	s := NewSharded[struct{}](8, 1024)
	for x := uint64(1); x <= 1024; x++ {
		s.Put(x, struct{}{})
	}
	if n := testing.AllocsPerRun(1000, func() {
		s.Put(42, struct{}{})
		s.Contains(42)
		s.Put(1<<42, struct{}{})
		s.Remove(1 << 42)
	}); n != 0 {
		t.Fatalf("set steady state allocates %.1f/op-batch, want 0", n)
	}
}

func TestCounterSteadyStateAllocs(t *testing.T) {
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	c := NewCounter(8)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc(h)
		c.Add(h, 5)
		c.Sum()
	}); n != 0 {
		t.Fatalf("counter steady state allocates %.1f/op-batch, want 0", n)
	}
}
