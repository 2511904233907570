package segment_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
	"github.com/adjusted-objects/dego/internal/segment"
	"github.com/adjusted-objects/dego/internal/skiplist"
	"github.com/adjusted-objects/dego/internal/stats"
)

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

// segmented is what both representations built on the directory offer.
type segmented interface {
	Put(h *core.Handle, k, v int)
	Remove(h *core.Handle, k int) bool
	Get(k int) (int, bool)
	Contains(k int) bool
	Len() int
	Range(f func(k, v int) bool)
}

// ordered is the skip list's ordered iteration, on top of segmented.
type ordered interface {
	RangeFrom(from int, f func(k, v int) bool)
	RangeBetween(from, to int, f func(k, v int) bool)
}

// reps lists the representations built on the directory. node is the size
// of one key's node with int keys and values, wantNode what it must stay on
// a 64-bit platform, and retained the ceiling TestSegmentedChurnRetention
// holds it to.
var reps = []struct {
	name     string
	node     uintptr
	wantNode uintptr
	retained float64
	build    func(r *core.Registry, buckets int, checked bool) segmented
}{
	{"HashMap", unsafe.Sizeof(segment.Node[int, int, struct{}]{}), 32, 35.2,
		func(r *core.Registry, buckets int, checked bool) segmented {
			return hashmap.NewSegmented[int, int](r, 0, buckets, intHash, checked)
		}},
	{"SkipList", unsafe.Sizeof(segment.Node[int, int, skiplist.Tower[int, int]]{}), 56, 82.2,
		func(r *core.Registry, buckets int, checked bool) segmented {
			return skiplist.NewSegmented[int, int](r, buckets, intHash, checked)
		}},
}

func TestSegmentedNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("node sizes are pinned for 64-bit platforms")
	}
	for _, rep := range reps {
		if rep.node != rep.wantNode {
			t.Errorf("%s: node is %d B, want %d", rep.name, rep.node, rep.wantNode)
		}
	}
}

func TestSegmentedBindingRetainedAfterRemove(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			r := core.NewRegistry(4)
			m := rep.build(r, 16, true)
			h, other := r.MustRegister(), r.MustRegister()
			m.Put(h, 5, 50)
			if !m.Remove(h, 5) {
				t.Fatal("remove failed")
			}
			if m.Remove(h, 5) {
				t.Fatal("double remove must miss")
			}
			if m.Len() != 0 || m.Contains(5) {
				t.Fatalf("removed key still counted: Len %d, Contains %v", m.Len(), m.Contains(5))
			}
			// Re-insert by the same thread: same segment, no guard trip.
			m.Put(h, 5, 51)
			if v, ok := m.Get(5); !ok || v != 51 || m.Len() != 1 {
				t.Fatalf("get = %d,%v, Len %d", v, ok, m.Len())
			}
			// Removing an unbound key is a miss without binding it, so
			// another thread may still take it.
			if m.Remove(h, 999) {
				t.Fatal("remove of never-inserted key must miss")
			}
			m.Put(other, 999, 1)
			if v, ok := m.Get(999); !ok || v != 1 || m.Len() != 2 {
				t.Fatalf("get = %d,%v, Len %d", v, ok, m.Len())
			}
		})
	}
}

func TestSegmentedGuardCatchesCWMRViolation(t *testing.T) {
	mustTrip := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must trip the guard", what)
			}
		}()
		f()
	}
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			for _, removed := range []bool{false, true} {
				r := core.NewRegistry(4)
				m := rep.build(r, 16, true)
				a, b := r.MustRegister(), r.MustRegister()
				m.Put(a, 1, 1) // key 1 binds to a's segment
				if removed {
					m.Remove(a, 1) // the binding outlives the entry
				}
				what := fmt.Sprintf("a cross-thread write (key removed: %v)", removed)
				mustTrip(t, what+": Put", func() { m.Put(b, 1, 2) })
				mustTrip(t, what+": Remove", func() { m.Remove(b, 1) })
			}
		})
	}
}

func TestSegmentedSharedBucketsConcurrent(t *testing.T) {
	// Four directory buckets and four writers that take ascending keys from
	// one ticket counter, so every insert shares a chain with the other
	// writers' inserts and loses CASes to them, and in the skip list the
	// writers that run at once insert neighbours and also lose the level-0
	// link they share at the tail. (With a fixed split, keys i*4+w, the
	// writers drift apart and a level-0 CAS is almost never lost.) Even keys
	// are put once and kept; odd keys cycle Put / Remove / re-Put, and
	// k%4 == 3 ends removed. Readers look kept keys up and scan while the
	// writers run: every scan holds every kept key whose Put returned before
	// it began, once, and the skip list's scans are strictly ascending.
	const writers, readers, n = 4, 2, 8000
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			r := core.NewRegistry(writers)
			m := rep.build(r, 4, true)
			om, isOrdered := m.(ordered)
			visible := func(k, want int) bool {
				v, ok := m.Get(k)
				return ok && v == want && m.Contains(k)
			}
			var next atomic.Int64
			kept := make([]atomic.Bool, n) // kept keys whose Put has returned
			var wg, rwg sync.WaitGroup
			start, stop := make(chan struct{}), make(chan struct{})
			for g := 0; g < readers; g++ {
				rwg.Add(1)
				go func(g int) {
					defer rwg.Done()
					rnd := rand.New(rand.NewSource(int64(g)))
					seen := make([]bool, n)
					done := make([]bool, n)
					<-start
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						runtime.Gosched() // leave the writers room to run in parallel
						if k := 2 * rnd.Intn(n/2); kept[k].Load() && !visible(k, k) {
							t.Errorf("reader %d: kept key %d reverted", g, k)
							return
						}
						if m.Contains(-1 - i) {
							t.Errorf("reader %d: never-stored key %d present", g, -1-i)
							return
						}
						for k := range done {
							done[k] = kept[k].Load()
						}
						clear(seen)
						from, to := 0, n
						prev, bad := -1, ""
						visit := func(k, v int) bool {
							switch {
							case k < from || k >= to:
								bad = fmt.Sprintf("key %d outside [%d, %d)", k, from, to)
							case seen[k]:
								bad = fmt.Sprintf("key %d visited twice", k)
							case isOrdered && k <= prev:
								bad = fmt.Sprintf("key %d after %d", k, prev)
							case v != k && v != -k:
								bad = fmt.Sprintf("key %d holds %d", k, v)
							default:
								prev, seen[k] = k, true
							}
							return bad == ""
						}
						switch {
						case !isOrdered || i%3 == 0:
							m.Range(visit)
						case i%3 == 1:
							from = rnd.Intn(n)
							om.RangeFrom(from, visit)
						default:
							from = rnd.Intn(n)
							to = from + rnd.Intn(64)
							om.RangeBetween(from, to, visit)
						}
						for k := from; k < min(to, n) && bad == ""; k++ {
							if done[k] && !seen[k] {
								bad = fmt.Sprintf("kept key %d missing from [%d, %d)", k, from, to)
							}
						}
						if bad != "" {
							t.Errorf("reader %d, scan %d: %s", g, i, bad)
							return
						}
					}
				}(g)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := r.MustRegister()
					<-start
					removeOnce := func(k int) bool {
						return m.Remove(h, k) && !m.Remove(h, k) && !m.Contains(k)
					}
					for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
						if k%2 == 0 {
							m.Put(h, k, k)
							if !visible(k, k) {
								t.Errorf("writer %d: own Put of %d not visible", w, k)
								return
							}
							kept[k].Store(true)
							continue
						}
						m.Put(h, k, -k)
						ok := visible(k, -k) && removeOnce(k)
						m.Put(h, k, k)
						ok = ok && visible(k, k)
						if ok && k%4 == 3 {
							ok = removeOnce(k)
						}
						if !ok {
							t.Errorf("writer %d: Put / Remove / re-Put cycle of %d misbehaved", w, k)
							return
						}
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
			var want []int
			for k := 0; k < n; k++ {
				if k%4 != 3 {
					want = append(want, k)
				}
			}
			if got := m.Len(); got != len(want) {
				t.Fatalf("Len = %d, want %d", got, len(want))
			}
			var got []int
			m.Range(func(k, v int) bool {
				if v != k {
					t.Fatalf("Range: key %d = %d", k, v)
				}
				got = append(got, k)
				return true
			})
			if !isOrdered {
				slices.Sort(got)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Range saw %d keys, want %d, each once (in ascending order when ordered)",
					len(got), len(want))
			}
			for k := 0; k < n; k++ {
				v, ok := m.Get(k)
				if present := k%4 != 3; ok != present || (ok && v != k) {
					t.Fatalf("Get(%d) = %d,%v, want present=%v", k, v, ok, present)
				}
			}
		})
	}
}
