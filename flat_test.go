package dego

import (
	"testing"
)

// flatUserID mimics the retwis pattern: a named integer ID type. The flat
// gate must accept it without WithHash (the codec reinterprets it), while
// node-based plans keep rejecting it — TestDefaultHashers pins the latter.
type flatUserID uint64

func TestFlatMapFamily(t *testing.T) {
	reg := NewRegistry(8)
	h := Must(reg.Register())

	m, err := Map[flatUserID, string](CommutingWriters(), On(reg), Capacity(256))
	if err != nil {
		t.Fatalf("flat map over a named integer key: %v", err)
	}
	if got := m.Plan().Rep; got != "FlatMap" {
		t.Fatalf("Rep = %q, want FlatMap", got)
	}
	if got := m.Plan().Declared(); got != "(M2, CWMR)" {
		t.Fatalf("Declared = %q", got)
	}
	if _, ok := m.rep.(*flatMap[flatUserID, string]); !ok {
		t.Fatalf("representation is %T", m.rep)
	}
	for i := flatUserID(0); i < 256; i++ {
		m.Put(h, i, "u")
	}
	if m.Len() != 256 {
		t.Fatalf("Len = %d", m.Len())
	}
	if v, ok := m.Get(7); !ok || v != "u" {
		t.Fatalf("Get(7) = (%q, %v)", v, ok)
	}
	if !m.Remove(h, 7) || m.Contains(7) {
		t.Fatal("Remove(7) lifecycle broken")
	}
	n := 0
	m.Range(func(k flatUserID, v string) bool { n++; return true })
	if n != 255 {
		t.Fatalf("Range visited %d", n)
	}

	sw, err := Map[int32, int](SingleWriter(), Checked(), On(reg), Capacity(64))
	if err != nil {
		t.Fatalf("flat SWMR map: %v", err)
	}
	if got := sw.Plan().Rep; got != "FlatSWMRMap" {
		t.Fatalf("Rep = %q, want FlatSWMRMap", got)
	}
	sw.Put(h, -5, 1) // negative keys round-trip through the codec
	if v, ok := sw.Get(-5); !ok || v != 1 {
		t.Fatalf("Get(-5) = (%d, %v)", v, ok)
	}

	s, err := Set[flatUserID](CommutingWriters(), On(reg), Capacity(128))
	if err != nil {
		t.Fatalf("flat set: %v", err)
	}
	if got := s.Plan().Rep; got != "FlatSet" {
		t.Fatalf("Rep = %q, want FlatSet", got)
	}
	s.Add(h, 1)
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("set membership broken")
	}

	c, err := Counter(Blind(), CommutingWriters(), On(reg), Capacity(8))
	if err != nil {
		t.Fatalf("flat counter: %v", err)
	}
	if got := c.Plan().Rep; got != "FlatCounter" {
		t.Fatalf("Rep = %q, want FlatCounter", got)
	}
	c.Inc(h)
	c.Add(h, 9)
	if got := c.Get(h); got != 10 {
		t.Fatalf("Get = %d", got)
	}
	if _, ok := c.rep.(flatCounterRep); !ok {
		t.Fatalf("representation is %T", c.rep)
	}
}

// TestFlatFacadeSteadyStateAllocs pins zero allocation through the public
// facade, not just the internal tables: the codec closures, the interface
// dispatch and the wrapper methods must not box either.
func TestFlatFacadeSteadyStateAllocs(t *testing.T) {
	reg := NewRegistry(8)
	h := Must(reg.Register())
	m := Must(Map[flatUserID, int64](CommutingWriters(), On(reg), Capacity(1024)))
	for i := flatUserID(1); i <= 1024; i++ {
		m.Put(h, i, int64(i))
	}
	c := Must(Counter(Blind(), CommutingWriters(), On(reg), Capacity(8)))
	if n := testing.AllocsPerRun(1000, func() {
		m.Put(h, 42, 7)
		m.Get(42)
		m.Contains(9)
		m.Put(h, 1<<40, 1)
		m.Remove(h, 1<<40)
		c.Inc(h)
	}); n != 0 {
		t.Fatalf("flat facade steady state allocates %.1f/op-batch, want 0", n)
	}
}
