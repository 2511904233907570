package adaptive

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// This file is the test suite for the range directory: per-range promotion
// and demotion over hash-prefix buckets, per-range sampling isolation, and
// the flapping race tests that drive one hot range through transitions while
// a cold range must stay quiescent.

func TestPolicyRangeCount(t *testing.T) {
	for in, want := range map[int]int{-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16} {
		if got := rangeCount(in); got != want {
			t.Errorf("rangeCount(%d) = %d, want %d", in, got, want)
		}
	}
}

// rangedKeys buckets 0..n-1 by the map's own routing, so tests can pick hot
// and cold keys that agree with the directory.
func rangedKeys(m *Map[int, int], n int) [][]int {
	keys := make([][]int, m.Ranges())
	for k := 0; k < n; k++ {
		r := m.RangeOf(k)
		keys[r] = append(keys[r], k)
	}
	return keys
}

func TestMapPerRangeBasicOps(t *testing.T) {
	r := core.NewRegistry(8)
	m := NewMap[int, int](r, 16, 256, 512, 4, intHash, Policy{SampleEvery: 1 << 62})
	h := r.MustRegister()
	if m.Ranges() != 4 {
		t.Fatalf("Ranges = %d, want 4", m.Ranges())
	}
	keys := rangedKeys(m, 4096)
	hot, cold := 0, 1
	if len(keys[hot]) == 0 || len(keys[cold]) == 0 {
		t.Fatal("routing produced an empty bucket over 4096 keys")
	}

	// Populate every range, promote only the hot one.
	want := map[int]int{}
	for ri, ks := range keys {
		for _, k := range ks[:8] {
			m.Put(h, k, ri*1000+k)
			want[k] = ri*1000 + k
		}
	}
	if !m.ForcePromoteRange(hot) {
		t.Fatal("ForcePromoteRange failed")
	}
	if m.RangeState(hot) != StatePromoted || m.RangeState(cold) != StateQuiescent {
		t.Fatalf("states: hot=%v cold=%v", m.RangeState(hot), m.RangeState(cold))
	}
	if m.State() != StatePromoted {
		t.Fatalf("summary State = %v, want promoted (one range is)", m.State())
	}

	// Overlay semantics inside the hot range; plain semantics in the cold.
	hk, ck := keys[hot][0], keys[cold][0]
	m.Put(h, hk, -1) // shadow
	want[hk] = -1
	if !m.Remove(h, keys[hot][1]) { // tombstone a backed hot key
		t.Fatal("Remove of backed hot key misreported")
	}
	delete(want, keys[hot][1])
	m.Put(h, ck, -2) // cold write stays in the striped rep
	want[ck] = -2
	for k, v := range want {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, got, ok, v)
		}
	}
	if m.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(want))
	}
	got := map[int]int{}
	m.Range(func(k, v int) bool { got[k] = v; return true })
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}

	// Wholesale force transitions report "any range transitioned" and leave
	// every range in the target state.
	if !m.ForcePromote() { // cold ranges still quiescent -> transitions happen
		t.Fatal("ForcePromote on partially promoted directory reported false")
	}
	for ri := 0; ri < m.Ranges(); ri++ {
		if m.RangeState(ri) != StatePromoted {
			t.Fatalf("range %d = %v after wholesale promote", ri, m.RangeState(ri))
		}
	}
	if m.ForcePromote() {
		t.Fatal("second wholesale promote reported a transition")
	}
	if !m.ForceDemote() || m.ForceDemote() {
		t.Fatal("wholesale demote: want exactly one reporting true")
	}
	if m.State() != StateQuiescent {
		t.Fatalf("summary State = %v after wholesale demote", m.State())
	}
	if m.Len() != len(want) {
		t.Fatalf("Len after demote = %d, want %d", m.Len(), len(want))
	}
}

// TestMapPerRangePromotesOnlyHotRange drives the real policy path: stalls
// recorded against one range's probe promote that range and no other — the
// per-range sampling split. Cold-range writes keep sampling their own
// (stall-free) stream and must stay quiescent.
func TestMapPerRangePromotesOnlyHotRange(t *testing.T) {
	r := core.NewRegistry(8)
	p := aggressive()
	p.DemoteSamples = 1000
	m := NewMap[int, int](r, 16, 256, 512, 4, intHash, p)
	h := r.MustRegister()
	keys := rangedKeys(m, 4096)
	hot, cold := 2, 3

	// Stall burst attributed to the hot range alone (the deterministic
	// stand-in for lock waits on its stripes).
	for i := 0; i < 1000; i++ {
		m.ranges[hot].probe.RecordLockWait()
	}
	// Writes in both ranges cross their sampling boundaries.
	for i := 0; i < 256; i++ {
		m.Put(h, keys[hot][i%len(keys[hot])], i)
		m.Put(h, keys[cold][i%len(keys[cold])], i)
	}
	if m.RangeState(hot) != StatePromoted {
		t.Fatalf("hot range = %v, want promoted after stall burst", m.RangeState(hot))
	}
	for ri := 0; ri < m.Ranges(); ri++ {
		if ri != hot && m.RangeState(ri) != StateQuiescent {
			t.Fatalf("range %d = %v, want quiescent (stalls were hot-range only)",
				ri, m.RangeState(ri))
		}
	}
	// The hot range's stalls aggregate into the object-level probe.
	if total := m.Probe().Snapshot().Total(); total < 1000 {
		t.Fatalf("object probe total = %d, want >= 1000 (child must propagate)", total)
	}
}

// TestMapPerRangeDemotesIndependently: a promoted hot range with a lone
// writer demotes through its own controller while the cold ranges never
// transition at all.
func TestMapPerRangeDemotesIndependently(t *testing.T) {
	r := core.NewRegistry(8)
	p := aggressive()
	m := NewMap[int, int](r, 16, 256, 512, 4, intHash, p)
	h := r.MustRegister()
	keys := rangedKeys(m, 4096)
	hot := 1
	if !m.ForcePromoteRange(hot) {
		t.Fatal("ForcePromoteRange failed")
	}
	for i := 0; i < 64*8; i++ {
		m.Put(h, keys[hot][i%len(keys[hot])], i)
	}
	if m.RangeState(hot) != StateQuiescent {
		t.Fatalf("hot range = %v, want quiescent after single-writer phase", m.RangeState(hot))
	}
	if got := m.Transitions(); got != 2 {
		t.Fatalf("Transitions = %d, want 2 (hot promote + demote only)", got)
	}
}

// TestMapPerRangeFlapping is the per-range satellite race test: one hot
// range is driven through promote/demote as fast as the flapper can while a
// cold range takes writes and must stay quiescent throughout; final contents
// are exact. Run under -race.
func TestMapPerRangeFlapping(t *testing.T) {
	const writers = 4
	const keyRange = 2048
	opsPerWriter := 60_000
	if testing.Short() {
		opsPerWriter = 8_000
	}
	r := core.NewRegistry(writers + 4)
	m := NewMap[int, int](r, 16, keyRange, 2*keyRange, 4, intHash, Policy{SampleEvery: 1 << 62})
	keys := rangedKeys(m, keyRange)
	hot, cold := 0, 2

	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		models [writers]map[int]int
	)
	flapped := make(chan struct{})
	go func() {
		defer close(flapped)
		for !stop.Load() {
			m.ForcePromoteRange(hot)
			m.ForceDemoteRange(hot)
		}
	}()
	// Cold-range watcher: per-range isolation means the cold range never
	// leaves quiescent, no matter how hard the hot range flaps.
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			if s := m.RangeState(cold); s != StateQuiescent {
				t.Errorf("cold range state = %v during hot-range flapping", s)
				return
			}
			m.Get(keys[cold][rng.Intn(len(keys[cold]))])
			m.Get(keys[hot][rng.Intn(len(keys[hot]))])
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
				// CWMR contract: writer w owns every index ≡ w mod writers,
				// alternating between the flapping hot range and the cold one.
				ks := keys[hot]
				if i%2 == 0 {
					ks = keys[cold]
				}
				k := ks[rng.Intn(len(ks)/writers)*writers+w]
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
	<-watcherDone
	if m.Transitions() == 0 {
		t.Fatal("flapper produced no transitions; test exercised nothing")
	}
	if s := m.RangeState(cold); s != StateQuiescent {
		t.Fatalf("cold range finished in state %v", s)
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
			t.Fatalf("key %d (range %d): Get = %d, %v; want %d, %v",
				k, m.RangeOf(k), gotV, gotOK, wantV, wantOK)
		}
	}
	if got := m.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
}
