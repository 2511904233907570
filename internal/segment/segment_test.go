package segment

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

func TestBaseSegmentPerThread(t *testing.T) {
	r := core.NewRegistry(8)
	made := atomic.Int64{}
	b := NewBase(r, func(owner int) *int64 {
		made.Add(1)
		v := int64(owner * 100)
		return &v
	})
	h1, h2 := r.MustRegister(), r.MustRegister()

	s1 := b.Mine(h1)
	if again := b.Mine(h1); again != s1 {
		t.Fatal("Mine must be stable for a handle")
	}
	s2 := b.Mine(h2)
	if s1 == s2 {
		t.Fatal("distinct threads must get distinct segments")
	}
	if made.Load() != 2 {
		t.Fatalf("newSeg called %d times, want 2", made.Load())
	}
	if *s1 != int64(h1.ID()*100) {
		t.Fatalf("segment seeded with wrong owner: %d", *s1)
	}
	if b.Len() != 2 || b.Capacity() != 8 {
		t.Fatalf("Len=%d Capacity=%d, want 2 and 8", b.Len(), b.Capacity())
	}
}

func TestBaseForEachOrderAndEarlyStop(t *testing.T) {
	r := core.NewRegistry(8)
	b := NewBase(r, func(owner int) *int { v := owner; return &v })
	var handles []*core.Handle
	for i := 0; i < 4; i++ {
		h := r.MustRegister()
		handles = append(handles, h)
		b.Mine(h)
	}
	var seen []int
	b.ForEach(func(owner int, seg *int) bool {
		seen = append(seen, owner)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("visited %d segments, want 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("ForEach must visit owners in ascending order")
		}
	}
	count := 0
	b.ForEach(func(int, *int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d, want 1", count)
	}
	_ = handles
}

func TestBaseConcurrentSum(t *testing.T) {
	// The CWSR counter pattern: each goroutine bumps its own segment; the
	// total must equal the sequential sum.
	const goroutines, perG = 16, 5000
	r := core.NewRegistry(goroutines)
	b := NewBase(r, func(int) *atomic.Int64 { return new(atomic.Int64) })
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.MustRegister()
			seg := b.Mine(h)
			for j := 0; j < perG; j++ {
				seg.Store(seg.Load() + 1) // owner-only plain read-modify-store
			}
		}()
	}
	wg.Wait()
	var total int64
	b.ForEach(func(_ int, seg *atomic.Int64) bool {
		total += seg.Load()
		return true
	})
	if total != goroutines*perG {
		t.Fatalf("sum = %d, want %d", total, goroutines*perG)
	}
}

func TestHashSegmentationRouting(t *testing.T) {
	h := NewHash(6, func(idx int) *int { v := idx; return &v })
	if h.Segments() != 8 {
		t.Fatalf("segments = %d, want 8 (rounded up)", h.Segments())
	}
	for hash := uint64(0); hash < 100; hash++ {
		idx := h.Index(hash)
		if idx != int(hash%8) {
			t.Fatalf("Index(%d) = %d, want %d", hash, idx, hash%8)
		}
		seg := h.For(hash)
		if *seg != idx {
			t.Fatalf("For(%d) returned segment %d, want %d", hash, *seg, idx)
		}
		if h.For(hash) != seg {
			t.Fatal("For must be stable")
		}
	}
	n := 0
	h.ForEach(func(int, *int) bool { n++; return true })
	if n != 8 {
		t.Fatalf("initialized segments = %d, want 8", n)
	}
}
