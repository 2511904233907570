package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
)

func TestMSSequentialFIFO(t *testing.T) {
	q := NewMS[int](nil)
	if !q.IsEmpty() {
		t.Fatal("fresh queue not empty")
	}
	if _, ok := q.Poll(); ok {
		t.Fatal("poll on empty queue must miss")
	}
	for i := 1; i <= 5; i++ {
		q.Offer(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	for i := 1; i <= 5; i++ {
		v, ok := q.Poll()
		if !ok || v != i {
			t.Fatalf("Poll = %d,%v, want %d", v, ok, i)
		}
	}
	if !q.IsEmpty() || q.Len() != 0 {
		t.Fatal("queue must be empty after draining")
	}
}

func TestMSConcurrentProducersConsumers(t *testing.T) {
	const producers, consumers, perP = 8, 8, 10000
	q := NewMS[int](new(contention.Probe))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Offer(p*perP + i)
			}
		}(p)
	}
	var consumed sync.Map
	var total atomic64
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Poll()
				if ok {
					if _, dup := consumed.LoadOrStore(v, true); dup {
						t.Errorf("value %d consumed twice", v)
						return
					}
					total.add(1)
					continue
				}
				select {
				case <-done:
					// Final drain after producers are finished.
					for {
						v, ok := q.Poll()
						if !ok {
							return
						}
						if _, dup := consumed.LoadOrStore(v, true); dup {
							t.Errorf("value %d consumed twice", v)
							return
						}
						total.add(1)
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	if got := total.load(); got != producers*perP {
		t.Fatalf("consumed %d values, want %d", got, producers*perP)
	}
}

func TestMSPerProducerOrder(t *testing.T) {
	// FIFO per producer: a single consumer must see each producer's values
	// in order.
	const producers, perP = 4, 5000
	q := NewMS[[2]int](nil)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Offer([2]int{p, i})
			}
		}(p)
	}
	wg.Wait()
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	for {
		v, ok := q.Poll()
		if !ok {
			break
		}
		if v[1] != last[v[0]]+1 {
			t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
		}
		last[v[0]] = v[1]
	}
	for p, l := range last {
		if l != perP-1 {
			t.Fatalf("producer %d: lost items after %d", p, l)
		}
	}
}

func TestMPSCSequential(t *testing.T) {
	r := core.NewRegistry(4)
	h := r.MustRegister()
	q := NewMPSC[int](nil, false)
	if !q.IsEmpty(h) {
		t.Fatal("fresh queue not empty")
	}
	for i := 1; i <= 3; i++ {
		q.Offer(h, i)
	}
	if v, ok := q.Peek(h); !ok || v != 1 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	for i := 1; i <= 3; i++ {
		if v, ok := q.Poll(h); !ok || v != i {
			t.Fatalf("Poll = %d,%v, want %d", v, ok, i)
		}
	}
	if _, ok := q.Poll(h); ok {
		t.Fatal("empty poll must miss")
	}
}

func TestMPSCManyProducersOneConsumer(t *testing.T) {
	const producers, perP = 15, 20000
	r := core.NewRegistry(producers + 1)
	q := NewMPSC[[2]int](new(contention.Probe), false)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perP; i++ {
				q.Offer(h, [2]int{p, i})
			}
		}(p)
	}
	consumer := r.MustRegister()
	got := 0
	last := make([]int, producers)
	for i := range last {
		last[i] = -1
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	for {
		v, ok := q.Poll(consumer)
		if ok {
			if v[1] != last[v[0]]+1 {
				t.Fatalf("producer %d out of order: %d after %d", v[0], v[1], last[v[0]])
			}
			last[v[0]] = v[1]
			got++
			if got == producers*perP {
				break
			}
			continue
		}
		select {
		case <-donech:
			if q.IsEmpty(consumer) && got != producers*perP {
				t.Fatalf("consumed %d, want %d", got, producers*perP)
			}
		default:
		}
	}
	if got != producers*perP {
		t.Fatalf("consumed %d, want %d", got, producers*perP)
	}
}

func TestMPSCGuardRejectsSecondConsumer(t *testing.T) {
	for name, consume := range map[string]func(q *MPSC[int, Gap], h *core.Handle){
		"Poll":  func(q *MPSC[int, Gap], h *core.Handle) { q.Poll(h) },
		"Drain": func(q *MPSC[int, Gap], h *core.Handle) { q.Drain(h, make([]int, 2), 2) },
	} {
		t.Run(name, func(t *testing.T) {
			r := core.NewRegistry(4)
			q := NewMPSC[int](nil, true)
			c1, c2 := r.MustRegister(), r.MustRegister()
			q.Offer(c1, 1) // producers may be anyone
			q.Offer(c2, 2)
			if _, ok := q.Poll(c1); !ok {
				t.Fatal("first consumer poll failed")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("second consumer must trip the MWSR guard")
				}
			}()
			consume(q, c2)
		})
	}
}

func TestMPSCDrain(t *testing.T) {
	r := core.NewRegistry(2)
	h := r.MustRegister()
	q := NewMPSC[int](nil, false)
	for i := 0; i < 10; i++ {
		q.Offer(h, i)
	}
	buf := make([]int, 4)
	n := q.Drain(h, buf, 4)
	if n != 4 || buf[0] != 0 || buf[3] != 3 {
		t.Fatalf("Drain = %d %v", n, buf)
	}
	n = q.Drain(h, buf, 100)
	if n != 4 { // limited by len(out)
		t.Fatalf("Drain capped by buffer = %d, want 4", n)
	}
	big := make([]int, 100)
	n = q.Drain(h, big, 100)
	if n != 2 { // 10 - 8 drained
		t.Fatalf("final Drain = %d, want 2", n)
	}
}

func TestQueuesMatchOracleQuick(t *testing.T) {
	// Property: a random offer/poll trace against both queues matches a
	// slice-based oracle.
	prop := func(ops []uint8) bool {
		r := core.NewRegistry(2)
		h := r.MustRegister()
		ms := NewMS[int](nil)
		mp := NewMPSC[int](nil, false)
		var oracle []int
		seq := 0
		for _, op := range ops {
			if op%3 != 0 { // offer twice as often
				seq++
				ms.Offer(seq)
				mp.Offer(h, seq)
				oracle = append(oracle, seq)
				continue
			}
			mv, mok := ms.Poll()
			pv, pok := mp.Poll(h)
			if len(oracle) == 0 {
				if mok || pok {
					return false
				}
				continue
			}
			want := oracle[0]
			oracle = oracle[1:]
			if !mok || !pok || mv != want || pv != want {
				return false
			}
		}
		return ms.Len() == len(oracle)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSentinelRetired: once the head and the tail have left a queue's
// embedded sentinel, the sentinel links to itself, so the queue does not
// keep every node it ever held reachable, and the MS reads see through it.
func TestSentinelRetired(t *testing.T) {
	h := core.NewRegistry(2).MustRegister()
	ms, mp := NewMS[int](nil), NewMPSC[int](nil, false)
	for i := 1; i <= 3; i++ {
		ms.Offer(i)
		mp.Offer(h, i)
	}
	ms.Poll()
	mp.Poll(h)
	for name, s := range map[string]*node[int]{"MS": &ms.sentinel, "MPSC": &mp.sentinel} {
		if next := s.next.Load(); next != s {
			t.Errorf("%s: polled-past sentinel links to %p, want itself", name, next)
		}
	}
	if v, ok := ms.Peek(); !ok || v != 2 || ms.IsEmpty() || ms.Len() != 2 {
		t.Fatalf("MS after retiring the sentinel: Peek = %d,%v, IsEmpty = %v, Len = %d", v, ok, ms.IsEmpty(), ms.Len())
	}
}

// TestSentinelRetiredUnderProducers races the first Poll of fresh queues,
// which retires the sentinel, against producers whose tail may still be the
// sentinel: no element may be lost or duplicated, and the sentinel ends up
// retired. MS runs two consumers that peek before they poll, so a stale
// head meets a retired sentinel too.
func TestSentinelRetiredUnderProducers(t *testing.T) {
	const queues, producers, perP = 100, 2, 32
	r := core.NewRegistry(producers + 1)
	handles := make([]*core.Handle, producers+1)
	for i := range handles {
		handles[i] = r.MustRegister()
	}
	// run starts the producers and consumers of one queue together and
	// returns how many elements the consumers took, and their sum.
	run := func(offer func(h *core.Handle, v int), poll func(h *core.Handle) (int, bool), consumers int) (int, int) {
		var wg sync.WaitGroup
		var n, sum atomic.Int64
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 1; i <= perP; i++ {
					offer(handles[p], i)
				}
			}(p)
		}
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for n.Load() < producers*perP {
					if v, ok := poll(handles[producers]); ok {
						n.Add(1)
						sum.Add(int64(v))
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		return int(n.Load()), int(sum.Load())
	}
	const wantSum = producers * perP * (perP + 1) / 2
	for i := 0; i < queues; i++ {
		ms := NewMS[int](nil)
		pollMS := func(*core.Handle) (int, bool) {
			// Elements are positive: a zero is the sentinel's value, read
			// through a head retired under the reader.
			if v, ok := ms.Peek(); ok && v == 0 {
				t.Errorf("MS queue %d: Peek read the retired sentinel", i)
			}
			return ms.Poll()
		}
		if n, sum := run(func(_ *core.Handle, v int) { ms.Offer(v) }, pollMS, 2); n != producers*perP || sum != wantSum {
			t.Fatalf("MS queue %d: took %d elements summing to %d, want %d summing to %d", i, n, sum, producers*perP, wantSum)
		}
		mp := NewMPSC[int](nil, false)
		if n, sum := run(mp.Offer, mp.Poll, 1); n != producers*perP || sum != wantSum {
			t.Fatalf("MPSC queue %d: took %d elements summing to %d, want %d summing to %d", i, n, sum, producers*perP, wantSum)
		}
		if ms.sentinel.next.Load() != &ms.sentinel || mp.sentinel.next.Load() != &mp.sentinel {
			t.Fatalf("queue %d: sentinel not retired after draining", i)
		}
	}
}

// atomic64 is a tiny helper avoiding an import cycle with sync/atomic naming.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// facade stands in for what dego.Queue keeps in a planned queue's Ext: an
// interned plan and the representation behind an interface, three words.
type facade struct {
	plan *int
	rep  any
}

// The element types a queue's layout is pinned for.
type (
	pair struct{ a, b int64 }
	line struct{ a [8]int64 }
)

// mpscOffsets returns where MPSC[T, X] keeps its head, guard, probe and
// tail.
func mpscOffsets[T, X any]() (head, guard, probe, tail uintptr) {
	var q MPSC[T, X]
	return unsafe.Offsetof(q.head), unsafe.Offsetof(q.guard), unsafe.Offsetof(q.probe), unsafe.Offsetof(q.tail)
}

// TestMPSCLayout pins what lies between the queue's two ends: whatever the
// element type, bare (a Gap in Ext) or planned (a three-word facade there),
// the consumer's head and the producers' tail sit at least a cache line
// apart, and the consumer-side fields sit before the tail.
func TestMPSCLayout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets func() (head, guard, probe, tail uintptr)
	}{
		{"struct{}, Gap", mpscOffsets[struct{}, Gap]},
		{"int64, Gap", mpscOffsets[int64, Gap]},
		{"pair, Gap", mpscOffsets[pair, Gap]},
		{"line, Gap", mpscOffsets[line, Gap]},
		{"struct{}, facade", mpscOffsets[struct{}, facade]},
		{"int64, facade", mpscOffsets[int64, facade]},
		{"pair, facade", mpscOffsets[pair, facade]},
		{"line, facade", mpscOffsets[line, facade]},
	} {
		head, guard, probe, tail := tc.offsets()
		if tail-head < core.CacheLineSize {
			t.Errorf("MPSC[%s]: tail is %d bytes past the head, want at least %d", tc.name, tail-head, core.CacheLineSize)
		}
		if guard >= tail || probe >= tail {
			t.Errorf("MPSC[%s]: guard at %d and probe at %d, want both before the tail at %d", tc.name, guard, probe, tail)
		}
	}
}

// msOffsets returns where MS[T, X] keeps its head and tail.
func msOffsets[T, X any]() (head, tail uintptr) {
	var q MS[T, X]
	return unsafe.Offsetof(q.head), unsafe.Offsetof(q.tail)
}

// TestMSLayout pins the baseline's head and tail a cache line apart, bare
// and planned, for the element types of TestMPSCLayout.
func TestMSLayout(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets func() (head, tail uintptr)
	}{
		{"struct{}, Gap", msOffsets[struct{}, Gap]},
		{"int64, Gap", msOffsets[int64, Gap]},
		{"pair, Gap", msOffsets[pair, Gap]},
		{"line, Gap", msOffsets[line, Gap]},
		{"struct{}, facade", msOffsets[struct{}, facade]},
		{"int64, facade", msOffsets[int64, facade]},
		{"pair, facade", msOffsets[pair, facade]},
		{"line, facade", msOffsets[line, facade]},
	} {
		if head, tail := tc.offsets(); tail-head < core.CacheLineSize {
			t.Errorf("MS[%s]: tail is %d bytes past the head, want at least %d", tc.name, tail-head, core.CacheLineSize)
		}
	}
}
