package linz

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/queue"
	"github.com/adjusted-objects/dego/internal/spec"
)

func TestSequentialHistoryLinearizes(t *testing.T) {
	c := spec.Counter(spec.C1)
	rec := NewRecorder()
	st := c.Init
	for i, op := range []*spec.Op{c.Op("inc"), c.Op("inc"), c.Op("get")} {
		s := rec.Begin()
		var v spec.Value
		st, v = op.Exec(st)
		rec.End(i, op, v, s)
	}
	if err := Check(c.Init, rec.History()); err != nil {
		t.Fatal(err)
	}
}

func TestWrongResultRejected(t *testing.T) {
	c := spec.Counter(spec.C1)
	rec := NewRecorder()
	s := rec.Begin()
	rec.End(0, c.Op("inc"), int64(7), s) // first inc cannot return 7
	if err := Check(c.Init, rec.History()); err == nil {
		t.Fatal("impossible history accepted")
	}
}

func TestConcurrentOverlapAllowsReordering(t *testing.T) {
	// Two overlapping incs and a get of 2 after both: linearizable.
	// A get of 1 strictly after both incs completed: NOT linearizable.
	c := spec.Counter(spec.C1)
	inc := c.Op("inc")
	get := c.Op("get")

	ok := []Event{
		{Thread: 0, Op: inc, Result: int64(1), Start: 1, End: 4},
		{Thread: 1, Op: inc, Result: int64(2), Start: 2, End: 3},
		{Thread: 2, Op: get, Result: int64(2), Start: 5, End: 6},
	}
	if err := Check(c.Init, ok); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}

	stale := []Event{
		{Thread: 0, Op: inc, Result: int64(1), Start: 1, End: 2},
		{Thread: 1, Op: inc, Result: int64(2), Start: 3, End: 4},
		{Thread: 2, Op: get, Result: int64(1), Start: 5, End: 6},
	}
	if err := Check(c.Init, stale); err == nil {
		t.Fatal("stale read accepted after both incs completed")
	}

	// The same stale read while overlapping the second inc IS linearizable.
	overlapping := []Event{
		{Thread: 0, Op: inc, Result: int64(1), Start: 1, End: 2},
		{Thread: 1, Op: inc, Result: int64(2), Start: 3, End: 6},
		{Thread: 2, Op: get, Result: int64(1), Start: 4, End: 5},
	}
	if err := Check(c.Init, overlapping); err != nil {
		t.Fatalf("overlapping stale read rejected: %v", err)
	}
}

func TestIncrementOnlyCounterLinearizable(t *testing.T) {
	// Record real concurrent executions of the adjusted counter against the
	// C3 specification (blind inc, single reader's get).
	c3 := spec.Counter(spec.C3)
	for trial := 0; trial < 30; trial++ {
		reg := core.NewRegistry(8)
		impl := counter.NewIncrementOnly(reg, false)
		rec := NewRecorder()
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := reg.MustRegister()
				for i := 0; i < 3; i++ {
					s := rec.Begin()
					impl.Inc(h)
					rec.End(w, c3.Op("inc"), spec.Bottom, s)
				}
			}(w)
		}
		wg.Wait()
		reader := reg.MustRegister()
		s := rec.Begin()
		got := impl.Get(reader)
		rec.End(3, c3.Op("get"), got, s)

		if err := Check(c3.Init, rec.History()); err != nil {
			t.Fatal(err)
		}
	}
}

// brokenCounter loses updates: a non-atomic read-modify-write over a shared
// plain variable, the bug the adjusted counter exists to avoid. Between its
// load and its store, Inc waits at the round's barrier, so every worker of a
// round reads the same value and the round's increments collapse into one.
type brokenCounter struct{ v atomic.Int64 }

func (b *brokenCounter) Inc(round *sync.WaitGroup) {
	cur := b.v.Load()
	round.Done()
	round.Wait()
	b.v.Store(cur + 1)
}

func TestBrokenCounterCaught(t *testing.T) {
	// The checker must reject the history of a racy counter whose final read
	// misses updates.
	const workers, rounds = 4, 2
	c3 := spec.Counter(spec.C3)
	impl := &brokenCounter{}
	barriers := make([]sync.WaitGroup, rounds)
	for i := range barriers {
		barriers[i].Add(workers)
	}
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := rec.Begin()
				impl.Inc(&barriers[i])
				rec.End(w, c3.Op("inc"), spec.Bottom, s)
			}
		}(w)
	}
	wg.Wait()
	s := rec.Begin()
	got := impl.v.Load()
	rec.End(workers, c3.Op("get"), got, s)
	if got >= workers*rounds {
		t.Fatalf("broken counter read %d after %d increments; the barrier should lose updates", got, workers*rounds)
	}
	if err := Check(c3.Init, rec.History()); err == nil {
		t.Fatalf("checker accepted a history whose final get read %d after %d increments", got, workers*rounds)
	}
}

func TestMPSCQueueLinearizable(t *testing.T) {
	q1 := spec.Queue()
	for trial := 0; trial < 30; trial++ {
		reg := core.NewRegistry(8)
		impl := queue.NewMPSC[int](nil, false)
		rec := NewRecorder()
		var wg sync.WaitGroup
		// Two producers, three offers each.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := reg.MustRegister()
				for i := 0; i < 3; i++ {
					v := w*10 + i
					s := rec.Begin()
					impl.Offer(h, v)
					rec.End(w, q1.Op("offer", v), spec.Bottom, s)
				}
			}(w)
		}
		// One concurrent consumer.
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := reg.MustRegister()
			for i := 0; i < 4; i++ {
				s := rec.Begin()
				v, ok := impl.Poll(h)
				if ok {
					rec.End(2, q1.Op("poll"), v, s)
				} else {
					rec.End(2, q1.Op("poll"), spec.Bottom, s)
				}
			}
		}()
		wg.Wait()
		if err := Check(q1.Init, rec.History()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMSQueueLinearizable(t *testing.T) {
	q1 := spec.Queue()
	for trial := 0; trial < 30; trial++ {
		impl := queue.NewMS[int](nil)
		rec := NewRecorder()
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					v := w*10 + i
					s := rec.Begin()
					impl.Offer(v)
					rec.End(w, q1.Op("offer", v), spec.Bottom, s)
				}
			}(w)
		}
		for w := 2; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					s := rec.Begin()
					v, ok := impl.Poll()
					if ok {
						rec.End(w, q1.Op("poll"), v, s)
					} else {
						rec.End(w, q1.Op("poll"), spec.Bottom, s)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := Check(q1.Init, rec.History()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHistoryTooLarge(t *testing.T) {
	c := spec.Counter(spec.C1)
	events := make([]Event, 64)
	for i := range events {
		events[i] = Event{Op: c.Op("inc"), Result: int64(i + 1), Start: int64(i), End: int64(i) + 1}
	}
	if err := Check(c.Init, events); err == nil {
		t.Fatal("oversized history accepted")
	}
}

func TestEmptyHistory(t *testing.T) {
	if err := Check(spec.Counter(spec.C1).Init, nil); err != nil {
		t.Fatal(err)
	}
}
