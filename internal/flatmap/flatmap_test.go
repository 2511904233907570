package flatmap

import (
	"math/rand"
	"testing"
)

// checkProbeInvariant verifies the linear-probe contract after arbitrary
// insert/delete churn: every occupied slot must be reachable from its
// key's home slot without crossing a free slot. Backward-shift deletion
// exists to preserve exactly this (a tombstone-free table has no "keep
// probing past free" escape hatch), so any break here is a shift bug.
func checkProbeInvariant[V any](t *testing.T, tb *table[V]) {
	t.Helper()
	for i := range tb.slots {
		k := tb.slots[i].key
		if k == 0 {
			continue
		}
		j := tb.home(k)
		for {
			if j == uint64(i) {
				break
			}
			if tb.slots[j].key == 0 {
				t.Fatalf("probe chain for key %d broken: free slot %d before slot %d", k, j, i)
			}
			j = (j + 1) & tb.mask
		}
	}
}

// TestTableOracle churns a table against map[uint64]uint64 with a seeded
// op mix over a small key space (collisions and probe runs guaranteed),
// checking results op by op and the full contents plus the probe
// invariant periodically.
func TestTableOracle(t *testing.T) {
	var tb table[uint64]
	tb.init(16) // small: forces growth under the churn below
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))

	const ops = 200_000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(512)) // includes the sentinel key 0
		switch rng.Intn(5) {
		case 0, 1: // put
			v := uint64(i)
			_, had := oracle[k]
			if fresh := tb.put(k, v); fresh == had {
				t.Fatalf("op %d: put(%d) fresh=%v, oracle had=%v", i, k, fresh, had)
			}
			oracle[k] = v
		case 2: // remove
			_, had := oracle[k]
			if got := tb.remove(k); got != had {
				t.Fatalf("op %d: remove(%d)=%v, oracle=%v", i, k, got, had)
			}
			delete(oracle, k)
		default: // get
			want, had := oracle[k]
			got, ok := tb.get(k)
			if ok != had || (had && got != want) {
				t.Fatalf("op %d: get(%d)=(%d,%v), oracle=(%d,%v)", i, k, got, ok, want, had)
			}
			if tb.contains(k) != had {
				t.Fatalf("op %d: contains(%d) != %v", i, k, had)
			}
		}
		if i%20_000 == 0 {
			if tb.len() != len(oracle) {
				t.Fatalf("op %d: len=%d, oracle=%d", i, tb.len(), len(oracle))
			}
			checkProbeInvariant(t, &tb)
		}
	}

	got := map[uint64]uint64{}
	tb.foreach(func(k, v uint64) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("foreach yielded key %d twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(oracle) {
		t.Fatalf("foreach yielded %d entries, oracle has %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if got[k] != v {
			t.Fatalf("key %d: foreach=%d, oracle=%d", k, got[k], v)
		}
	}
}

// TestBackwardShiftDeletion deletes every key of a well-filled table one
// by one in random order, checking after each deletion that all survivors
// are still reachable and the probe invariant holds — the property
// tombstoned tables only satisfy vacuously.
func TestBackwardShiftDeletion(t *testing.T) {
	var tb table[int]
	tb.init(256)
	keys := make([]uint64, 0, 256)
	for k := uint64(1); k <= 256; k++ {
		tb.put(k, int(k))
		keys = append(keys, k)
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	for i, k := range keys {
		if !tb.remove(k) {
			t.Fatalf("remove(%d): key missing", k)
		}
		checkProbeInvariant(t, &tb)
		for _, live := range keys[i+1:] {
			if v, ok := tb.get(live); !ok || v != int(live) {
				t.Fatalf("after removing %d: survivor %d unreachable (got %d, %v)", k, live, v, ok)
			}
		}
	}
	if tb.len() != 0 {
		t.Fatalf("drained table has len %d", tb.len())
	}
}

// TestFillFactorAndGrowth pins the sizing contract: a table built for
// capacity n accepts n inserts without reallocating its slot array, and
// growth beyond that preserves every entry.
func TestFillFactorAndGrowth(t *testing.T) {
	for _, capacity := range []int{1, 7, 64, 1000, 4096} {
		var tb table[int]
		tb.init(capacity)
		if tb.limit < capacity {
			t.Fatalf("capacity %d: limit %d admits fewer entries than declared", capacity, tb.limit)
		}
		slots := len(tb.slots)
		if slots&(slots-1) != 0 {
			t.Fatalf("capacity %d: %d slots not a power of two", capacity, slots)
		}
		for k := uint64(1); k <= uint64(capacity); k++ {
			tb.put(k, int(k))
		}
		if len(tb.slots) != slots {
			t.Fatalf("capacity %d: grew at declared occupancy (%d → %d slots)", capacity, slots, len(tb.slots))
		}
		// Push past the limit: growth must keep everything.
		for k := uint64(capacity + 1); k <= uint64(4*capacity+8); k++ {
			tb.put(k, int(k))
		}
		if len(tb.slots) == slots && 4*capacity+8 > tb.limit {
			t.Fatalf("capacity %d: never grew past the fill limit", capacity)
		}
		for k := uint64(1); k <= uint64(4*capacity+8); k++ {
			if v, ok := tb.get(k); !ok || v != int(k) {
				t.Fatalf("capacity %d: key %d lost across growth", capacity, k)
			}
		}
		checkProbeInvariant(t, &tb)
	}
}

// TestZeroKey exercises the out-of-band sentinel key.
func TestZeroKey(t *testing.T) {
	m := NewSharded[string](4, 16)
	if m.Contains(0) {
		t.Fatal("empty map contains 0")
	}
	m.Put(0, "zero")
	if v, ok := m.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = (%q, %v)", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := false
	m.Range(func(k uint64, v string) bool {
		if k == 0 && v == "zero" {
			seen = true
		}
		return true
	})
	if !seen {
		t.Fatal("Range skipped key 0")
	}
	if !m.Remove(0) || m.Remove(0) {
		t.Fatal("Remove(0) lifecycle broken")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after remove = %d", m.Len())
	}
}

// TestShardedCommutingWriters runs disjoint writers and unrestricted
// readers concurrently — the CWMR contract — and checks convergence. The
// race job runs this under -race.
func TestShardedCommutingWriters(t *testing.T) {
	const (
		writers = 4
		perKey  = 512
	)
	m := NewSharded[uint64](8, writers*perKey)
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			base := uint64(w * perKey)
			for round := 0; round < 50; round++ {
				for i := uint64(0); i < perKey; i++ {
					m.Put(base+i, base+i)
				}
				for i := uint64(0); i < perKey; i += 2 {
					m.Remove(base + i)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(0); k < writers*perKey; k += 97 {
					if v, ok := m.Get(k); ok && v != k {
						panic("torn read")
					}
				}
				m.Len()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	close(stop)
	for w := 0; w < writers; w++ {
		base := uint64(w * perKey)
		for i := uint64(0); i < perKey; i++ {
			want := i%2 == 1
			if got := m.Contains(base + i); got != want {
				t.Fatalf("key %d: contains=%v, want %v", base+i, got, want)
			}
		}
	}
}

// A flat set is the sharded map over empty values.
func TestSetBasics(t *testing.T) {
	s := NewSharded[struct{}](4, 64)
	for x := uint64(0); x < 64; x++ {
		s.Put(x, struct{}{})
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Remove(0) || s.Remove(0) || s.Contains(0) {
		t.Fatal("Remove(0) lifecycle broken")
	}
	n := 0
	s.Range(func(uint64, struct{}) bool { n++; return true })
	if n != 63 {
		t.Fatalf("Range visited %d", n)
	}
}
