package segment_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// slabbed is the directory's test view (export_test.go), which both
// representations promote.
type slabbed interface {
	segmented
	Bound(key int) (owner, nodes int, addr uintptr)
	Slab(id int) (base, end uintptr, free int)
	InsertAfter(h *core.Handle, key, val int, between func()) bool
}

// TestSlabsStayOwnerPrivate has writers on distinct handles insert fresh
// keys into one directory of few buckets, so their inserts share chains and
// lose CASes to each other, while readers Get and Range. Right after each
// insert the writer checks that its key has one node, bound to it, lying in
// its own current slab; it records that slab's address, and no slab may be
// recorded by two writers. At the end every key is found once, by Range and
// by Get, still bound to its inserter. `make race` runs it three times.
func TestSlabsStayOwnerPrivate(t *testing.T) {
	const writers, readers = 4, 2
	perWriter := 1500
	if testing.Short() {
		perWriter = 500
	}
	n := writers * perWriter
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			r := core.NewRegistry(writers)
			m := rep.build(r, 64, true).(slabbed)
			ids := make([]int, writers)
			slabs := make([]map[uintptr]bool, writers)
			var wg, rwg sync.WaitGroup
			start, stop := make(chan struct{}), make(chan struct{})
			for g := 0; g < readers; g++ {
				rwg.Add(1)
				go func(g int) {
					defer rwg.Done()
					rnd := rand.New(rand.NewSource(int64(g)))
					seen := make([]bool, n)
					<-start
					for {
						select {
						case <-stop:
							return
						default:
						}
						runtime.Gosched()
						k := rnd.Intn(n)
						if v, ok := m.Get(k); ok && v != k {
							t.Errorf("reader %d: key %d holds %d", g, k, v)
							return
						}
						clear(seen)
						bad := ""
						m.Range(func(k, v int) bool {
							switch {
							case k < 0 || k >= n || v != k:
								bad = fmt.Sprintf("entry %d = %d", k, v)
							case seen[k]:
								bad = fmt.Sprintf("key %d visited twice", k)
							}
							seen[k] = true
							return bad == ""
						})
						if bad != "" {
							t.Errorf("reader %d: %s", g, bad)
							return
						}
					}
				}(g)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				h := r.MustRegister()
				ids[w], slabs[w] = h.ID(), map[uintptr]bool{}
				go func(w int) {
					defer wg.Done()
					<-start
					// Key i*writers + w: the writers insert neighbours at once.
					for i := 0; i < perWriter; i++ {
						k := i*writers + w
						m.Put(h, k, k)
						owner, nodes, addr := m.Bound(k)
						base, end, _ := m.Slab(h.ID())
						if owner != h.ID() || nodes != 1 || addr < base || addr >= end {
							t.Errorf("writer %d, key %d: owner %d, %d nodes, node %#x outside own slab [%#x, %#x)",
								w, k, owner, nodes, addr, base, end)
							return
						}
						slabs[w][base] = true
					}
				}(w)
			}
			close(start)
			wg.Wait()
			close(stop)
			rwg.Wait()
			if t.Failed() {
				return
			}
			for a := range slabs {
				for b := a + 1; b < writers; b++ {
					for base := range slabs[a] {
						if slabs[b][base] {
							t.Fatalf("writers %d and %d took nodes from one slab at %#x", a, b, base)
						}
					}
				}
			}
			count := make([]int, n)
			m.Range(func(k, v int) bool { count[k]++; return true })
			for k := 0; k < n; k++ {
				v, ok := m.Get(k)
				owner, nodes, _ := m.Bound(k)
				if count[k] != 1 || !ok || v != k || nodes != 1 || owner != ids[k%writers] {
					t.Fatalf("key %d: Range saw it %d times, Get %d,%v, %d nodes bound to %d, inserted by %d",
						k, count[k], v, ok, nodes, owner, ids[k%writers])
				}
			}
			if m.Len() != n {
				t.Fatalf("Len = %d, want %d", m.Len(), n)
			}
		})
	}
}

// TestLostCASReturnsNode forces the race the CWMR contract forbids: a
// thread inserts a key from a bucket head read before another thread
// bound the same key. Its CAS fails, its retry finds the key, and the node
// it took must go back to its slab rather than be orphaned: the key keeps
// one node, bound to the first inserter, holding the later value, and the
// loser's next fresh key gets the returned node, zeroed and linked anew.
func TestLostCASReturnsNode(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			r := core.NewRegistry(2)
			m := rep.build(r, 1, false).(slabbed) // unchecked: the duplicate is deliberate
			a, b := r.MustRegister(), r.MustRegister()
			m.Put(b, 100, 100) // opens b's first slab
			_, _, free := m.Slab(b.ID())
			if m.InsertAfter(b, 7, 2, func() { m.Put(a, 7, 1) }) {
				t.Fatal("an insert that lost to the same key published a node")
			}
			if _, _, got := m.Slab(b.ID()); got != free {
				t.Fatalf("loser's slab has %d free nodes, had %d: its node was orphaned", got, free)
			}
			if owner, nodes, _ := m.Bound(7); owner != a.ID() || nodes != 1 {
				t.Fatalf("key 7: %d nodes bound to %d, want 1 bound to %d", nodes, owner, a.ID())
			}
			base, end, _ := m.Slab(b.ID())
			m.Put(b, 8, 8)
			if owner, nodes, addr := m.Bound(8); owner != b.ID() || nodes != 1 || addr < base || addr >= end {
				t.Fatalf("key 8: %d nodes bound to %d at %#x, want 1 bound to %d in [%#x, %#x)",
					nodes, owner, addr, b.ID(), base, end)
			}
			want := map[int]int{7: 2, 8: 8, 100: 100}
			for k, v := range want {
				if got, ok := m.Get(k); !ok || got != v {
					t.Fatalf("Get(%d) = %d,%v, want %d", k, got, ok, v)
				}
			}
			got := map[int]int{}
			m.Range(func(k, v int) bool { got[k] = v; return true })
			if m.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("Len %d, Range saw %v, want %v", m.Len(), got, want)
			}
		})
	}
}
