package adaptive

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

// aggressive is a policy that samples often and acts on the first evidence,
// so single-threaded tests can drive transitions deterministically.
func aggressive() Policy {
	return Policy{
		SampleEvery:      64,
		WindowBuckets:    4,
		MinSamples:       1,
		PromoteStallRate: 0.05,
		DemoteWriters:    1,
		DemoteSamples:    2,
		Cooldown:         1,
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateQuiescent: "quiescent",
		StateMigrating: "migrating",
		StatePromoted:  "promoted",
		StateDemoting:  "demoting",
		State(42):      "State(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int32(s), got, want)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p != DefaultPolicy() {
		t.Fatalf("zero policy = %+v, want defaults %+v", p, DefaultPolicy())
	}
	// Non-zero fields survive.
	p = Policy{SampleEvery: 100}.withDefaults()
	if p.SampleEvery != 100 || p.WindowBuckets != DefaultPolicy().WindowBuckets {
		t.Fatalf("partial policy = %+v", p)
	}
	if mask := (Policy{SampleEvery: 100}).sampleMask(); mask != 127 {
		t.Fatalf("sampleMask = %d, want 127", mask)
	}
	// Values past the largest int64 power of two must clamp, not loop.
	if mask := (Policy{SampleEvery: math.MaxInt64}).sampleMask(); mask != 1<<62-1 {
		t.Fatalf("sampleMask(MaxInt64) = %d, want %d", mask, int64(1<<62-1))
	}
}

// --- Map --------------------------------------------------------------------

func newTestMap(r *core.Registry, p Policy) *Map[int, int] {
	return NewMap[int, int](r, 16, 256, 512, 1, intHash, p)
}

func TestMapSingleThreadStaysQuiescent(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, aggressive())
	h := r.MustRegister()
	for i := 0; i < 10_000; i++ {
		m.Put(h, i%100, i)
	}
	if m.State() != StateQuiescent {
		t.Fatalf("state = %v, want quiescent (no contention)", m.State())
	}
	if m.Transitions() != 0 {
		t.Fatalf("transitions = %d, want 0", m.Transitions())
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
}

func TestMapForceTransitionsAreGuarded(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, DefaultPolicy())
	if m.ForceDemote() {
		t.Fatal("ForceDemote succeeded while quiescent")
	}
	if !m.ForcePromote() || m.ForcePromote() {
		t.Fatal("ForcePromote: want exactly one success")
	}
	if !m.ForceDemote() || m.ForceDemote() {
		t.Fatal("ForceDemote: want exactly one success")
	}
	if m.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", m.Transitions())
	}
}

func TestMapBasicOpsPerState(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, Policy{SampleEvery: 1 << 62})
	h := r.MustRegister()

	check := func(stage string, k, want int, wantOK bool) {
		t.Helper()
		got, ok := m.Get(k)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("%s: Get(%d) = %d, %v; want %d, %v", stage, k, got, ok, want, wantOK)
		}
		if m.Contains(k) != wantOK {
			t.Fatalf("%s: Contains(%d) != %v", stage, k, wantOK)
		}
	}

	// Quiescent.
	m.Put(h, 1, 10)
	m.Put(h, 2, 20)
	m.Put(h, 3, 30)
	if !m.Remove(h, 3) || m.Remove(h, 3) {
		t.Fatal("quiescent Remove misreported presence")
	}
	check("quiescent", 1, 10, true)
	check("quiescent", 3, 0, false)
	if m.Len() != 2 {
		t.Fatalf("quiescent Len = %d, want 2", m.Len())
	}

	// Promoted: backed keys readable, updates shadow, removes tombstone.
	if !m.ForcePromote() {
		t.Fatal("ForcePromote failed")
	}
	check("promoted/backed", 1, 10, true)
	m.Put(h, 1, 11) // shadow a backed key
	check("promoted/shadowed", 1, 11, true)
	m.Put(h, 4, 40) // fresh key, lives only in the segmented map
	check("promoted/fresh", 4, 40, true)
	if !m.Remove(h, 2) { // backed key -> tombstone
		t.Fatal("promoted Remove of backed key misreported")
	}
	check("promoted/tombstoned", 2, 0, false)
	if m.Remove(h, 2) {
		t.Fatal("promoted Remove saw a tombstoned key as present")
	}
	if !m.Remove(h, 4) { // segment-only key -> plain removal
		t.Fatal("promoted Remove of fresh key misreported")
	}
	check("promoted/removed-fresh", 4, 0, false)
	m.Put(h, 2, 22) // resurrect through the tombstone
	check("promoted/resurrected", 2, 22, true)
	if m.Len() != 2 { // {1:11, 2:22}
		t.Fatalf("promoted Len = %d, want 2", m.Len())
	}

	// Demoted: merge must apply shadows and tombstones.
	m.Put(h, 5, 50)
	if !m.Remove(h, 5) {
		t.Fatal("Remove(5) misreported")
	}
	if !m.ForceDemote() {
		t.Fatal("ForceDemote failed")
	}
	check("demoted", 1, 11, true)
	check("demoted", 2, 22, true)
	check("demoted", 5, 0, false)
	if m.Len() != 2 {
		t.Fatalf("demoted Len = %d, want 2", m.Len())
	}

	got := map[int]int{}
	m.Range(func(k, v int) bool { got[k] = v; return true })
	if len(got) != 2 || got[1] != 11 || got[2] != 22 {
		t.Fatalf("Range = %v", got)
	}
}

func TestMapRangeWhilePromoted(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, Policy{SampleEvery: 1 << 62})
	h := r.MustRegister()
	for k := 0; k < 10; k++ {
		m.Put(h, k, k)
	}
	if !m.ForcePromote() {
		t.Fatal("ForcePromote refused a quiescent map")
	}
	m.Put(h, 0, 100) // shadow
	m.Remove(h, 1)   // tombstone
	m.Put(h, 10, 10) // fresh
	if _, ok := m.Get(1); ok {
		t.Fatal("tombstoned backed key still visible")
	}
	want := map[int]int{0: 100, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10}
	got := map[int]int{}
	m.Range(func(k, v int) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("Range len = %d, want %d (%v)", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	// Early stop.
	n := 0
	m.Range(func(int, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d", n)
	}
	// The demotion drain keeps the shadowed update, drops the tombstoned
	// backed key and carries the fresh insert into a fresh striped map.
	if !m.ForceDemote() {
		t.Fatal("ForceDemote refused a promoted map")
	}
	if m.State() != StateQuiescent {
		t.Fatalf("state = %v after demote", m.State())
	}
	if m.Len() != len(want) {
		t.Fatalf("Len after demote = %d, want %d", m.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("after demote: Get(%d) = (%d, %v), want %d", k, got, ok, v)
		}
	}
}

// TestMapZeroSizeValues uses struct{} values (the set idiom): every
// heap-allocated zero-size box shares one address, so this is the
// regression test for the tombstone sentinel — a `new(V)` tombstone would
// alias every stored box and report live promoted entries as deleted.
func TestMapZeroSizeValues(t *testing.T) {
	r := core.NewRegistry(8)
	m := NewMap[int, struct{}](r, 16, 256, 512, 1, intHash, Policy{SampleEvery: 1 << 62})
	h := r.MustRegister()
	m.Put(h, 1, struct{}{})
	m.ForcePromote()
	m.Put(h, 2, struct{}{}) // zero-size box stored in the segmented map
	if !m.Contains(2) {
		t.Fatal("promoted zero-size entry reads as absent (tombstone aliasing)")
	}
	if !m.Contains(1) || m.Len() != 2 {
		t.Fatalf("Contains(1)=%v Len=%d, want true, 2", m.Contains(1), m.Len())
	}
	if !m.Remove(h, 1) || m.Contains(1) {
		t.Fatal("tombstoned backed key still visible")
	}
	m.ForceDemote()
	if m.Len() != 1 || !m.Contains(2) || m.Contains(1) {
		t.Fatalf("after demote: Len=%d Contains(2)=%v Contains(1)=%v",
			m.Len(), m.Contains(2), m.Contains(1))
	}
}

func TestMapPutRefSharedBoxes(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, Policy{SampleEvery: 1 << 62})
	h := r.MustRegister()
	boxes := make([]*int, 8)
	for i := range boxes {
		v := i * 10
		boxes[i] = &v
	}
	for i := range boxes {
		m.PutRef(h, i, boxes[i]) // cheap state: value copied
	}
	m.ForcePromote()
	for i := range boxes {
		m.PutRef(h, i, boxes[i]) // promoted: box stored directly
		if v, ok := m.Get(i); !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	// A user box must never be confused with the internal tombstone.
	if !m.Remove(h, 0) {
		t.Fatal("Remove(0) misreported")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("Get(0) found a removed key")
	}
	m.ForceDemote()
	if m.Len() != len(boxes)-1 {
		t.Fatalf("Len = %d, want %d", m.Len(), len(boxes)-1)
	}
}

func TestMapPromotesOnStallRate(t *testing.T) {
	r := core.NewRegistry(8)
	p := aggressive()
	p.DemoteSamples = 1000
	m := newTestMap(r, p)
	h := r.MustRegister()
	for i := 0; i < 1000; i++ {
		m.Probe().RecordLockWait()
	}
	for i := 0; i < 256; i++ {
		m.Put(h, i, i)
	}
	if m.State() != StatePromoted {
		t.Fatalf("state = %v, want promoted after stall burst", m.State())
	}
	// Contents unaffected by the transition.
	for i := 0; i < 256; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v after promotion", i, v, ok)
		}
	}
}

func TestMapDemotesWhenContentionSubsides(t *testing.T) {
	r := core.NewRegistry(8)
	m := newTestMap(r, aggressive())
	h := r.MustRegister()
	if !m.ForcePromote() {
		t.Fatal("ForcePromote failed")
	}
	// A lone writer is the demote signal.
	for i := 0; i < 64*8; i++ {
		m.Put(h, i%100, i)
	}
	if m.State() != StateQuiescent {
		t.Fatalf("state = %v, want quiescent after single-writer phase", m.State())
	}
	for i := 0; i < 100; i++ {
		if _, ok := m.Get(i); !ok {
			t.Fatalf("Get(%d) missing after demotion", i)
		}
	}
}

// TestMapMigrationNoLostUpdates hammers an adaptive map across forced
// promote and demote boundaries under the commuting-writers contract and
// asserts the final contents are exact — the satellite race test of the
// issue. Run under -race.
func TestMapMigrationNoLostUpdates(t *testing.T) {
	const writers = 4
	const keyRange = 1024
	opsPerWriter := 100_000
	if testing.Short() {
		opsPerWriter = 10_000
	}
	r := core.NewRegistry(writers + 4)
	m := NewMap[int, int](r, 16, keyRange, 2*keyRange, 1, intHash, Policy{SampleEvery: 1 << 62})

	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		models [writers]map[int]int
	)
	flapped := make(chan struct{})
	go func() {
		defer close(flapped)
		for !stop.Load() {
			m.ForcePromote()
			m.ForceDemote()
		}
	}()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			m.Get(rng.Intn(keyRange))
			m.Len()
		}
	}()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			defer h.Release()
			model := make(map[int]int)
			models[w] = model
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				// CWMR contract: writer w owns keys with k % writers == w.
				k := rng.Intn(keyRange/writers)*writers + w
				if rng.Intn(3) == 0 {
					wantPresent := func() bool { _, ok := model[k]; return ok }()
					if got := m.Remove(h, k); got != wantPresent {
						t.Errorf("Remove(%d) = %v, want %v", k, got, wantPresent)
						return
					}
					delete(model, k)
				} else {
					m.Put(h, k, i)
					model[k] = i
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-flapped
	<-readerDone
	if m.Transitions() == 0 {
		t.Fatal("flapper produced no transitions; test exercised nothing")
	}

	want := map[int]int{}
	for _, model := range models {
		for k, v := range model {
			want[k] = v
		}
	}
	for k := 0; k < keyRange; k++ {
		wantV, wantOK := want[k]
		gotV, gotOK := m.Get(k)
		if gotOK != wantOK || (gotOK && gotV != wantV) {
			t.Fatalf("key %d: Get = %d, %v; want %d, %v (after %d transitions, state %v)",
				k, gotV, gotOK, wantV, wantOK, m.Transitions(), m.State())
		}
	}
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	// One more full cycle on the settled map must change nothing.
	m.ForcePromote()
	m.ForceDemote()
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len after settle cycle = %d, want %d", got, len(want))
	}
}

// TestMapAdaptsUnderRealContention is the end-to-end smoke: many goroutines
// hammering commuting updates promote the map through the real policy path.
func TestMapAdaptsUnderRealContention(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent; covered deterministically elsewhere")
	}
	writers := 8
	r := core.NewRegistry(writers + 4)
	// Few stripes: collisions guaranteed, lock waits plentiful.
	m := NewMap[int, int](r, 1, 256, 512, 1, intHash, aggressive())
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			defer h.Release()
			for i := 0; i < 100_000; i++ {
				m.Put(h, i%64*writers+w, i)
				if m.State() == StatePromoted {
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Transitions() == 0 {
		t.Skip("no contention observed on this machine; nothing to assert")
	}
}
