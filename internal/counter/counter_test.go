package counter

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
)

func TestAtomicSequential(t *testing.T) {
	a := NewAtomic(nil)
	if got := a.IncrementAndGet(); got != 1 {
		t.Fatalf("IncrementAndGet = %d, want 1", got)
	}
	if got := a.AddAndGet(9); got != 10 {
		t.Fatalf("AddAndGet = %d, want 10", got)
	}
	if got := a.Get(); got != 10 {
		t.Fatalf("Get = %d, want 10", got)
	}
	if !a.CompareAndSet(10, 20) || a.CompareAndSet(10, 30) {
		t.Fatal("CAS semantics wrong")
	}
	a.Set(5)
	if a.Get() != 5 {
		t.Fatal("Set failed")
	}
	a.Reset()
	if a.Get() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestAtomicConcurrentSum(t *testing.T) {
	const goroutines, each = 16, 20000
	probe := new(contention.Probe)
	a := NewAtomic(probe)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				a.IncrementAndGet()
			}
		}()
	}
	wg.Wait()
	if got := a.Get(); got != goroutines*each {
		t.Fatalf("sum = %d, want %d", got, goroutines*each)
	}
	// With 16 goroutines hammering one cell, some CAS failures are all but
	// certain; this is the contention signature the stall proxy needs.
	if probe.Snapshot().CASFailures == 0 {
		t.Log("no CAS failures observed (machine too serial?); stall proxy untested")
	}
}

func TestAdderConcurrentSum(t *testing.T) {
	const goroutines, each = 16, 20000
	r := core.NewRegistry(goroutines)
	a := NewAdder(32, nil)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.MustRegister()
			for j := 0; j < each; j++ {
				a.Inc(h)
			}
		}()
	}
	wg.Wait()
	if got := a.Sum(); got != goroutines*each {
		t.Fatalf("Sum = %d, want %d", got, goroutines*each)
	}
}

func TestAdderNegativeDeltas(t *testing.T) {
	r := core.NewRegistry(4)
	h := r.MustRegister()
	a := NewAdder(4, nil)
	a.Add(h, 10)
	a.Add(h, -3)
	if got := a.Sum(); got != 7 {
		t.Fatalf("Sum = %d, want 7", got)
	}
}

func TestIncrementOnlyConcurrentSum(t *testing.T) {
	const goroutines, each = 16, 20000
	r := core.NewRegistry(goroutines + 1)
	c := NewIncrementOnly(r, false)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.MustRegister()
			for j := 0; j < each; j++ {
				c.Inc(h)
			}
		}()
	}
	wg.Wait()
	reader := r.MustRegister()
	if got := c.Get(reader); got != goroutines*each {
		t.Fatalf("Get = %d, want %d", got, goroutines*each)
	}
}

func TestIncrementOnlyReadsAreMonotone(t *testing.T) {
	// "if inc are unitary, such a read is linearizable": with a single
	// reader, successive sums never decrease.
	const writers = 8
	r := core.NewRegistry(writers + 1)
	c := NewIncrementOnly(r, false)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.MustRegister()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc(h)
				}
			}
		}()
	}
	reader := r.MustRegister()
	var prev int64 = -1
	for i := 0; i < 50000; i++ {
		v := c.Get(reader)
		if v < prev {
			t.Fatalf("read went backwards: %d then %d", prev, v)
		}
		prev = v
	}
	close(stop)
	wg.Wait()
}

func TestIncrementOnlyGuardEnforcesSingleReader(t *testing.T) {
	r := core.NewRegistry(4)
	c := NewIncrementOnly(r, true)
	h1, h2 := r.MustRegister(), r.MustRegister()
	c.Inc(h1)
	c.Inc(h2) // CWSR: many writers fine
	c.Get(h1) // h1 claims the reader role
	defer func() {
		if recover() == nil {
			t.Fatal("second reader must trip the CWSR guard")
		}
	}()
	c.Get(h2)
}

func TestIncrementOnlyRejectsDecrement(t *testing.T) {
	r := core.NewRegistry(2)
	h := r.MustRegister()
	c := NewIncrementOnly(r, false)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delta must panic (adjusted interface)")
		}
	}()
	c.Add(h, -1)
}

func TestCountersAgreeQuick(t *testing.T) {
	// Property: for any sequence of increments, all three implementations
	// report the same total as the sequential oracle.
	prop := func(deltas []uint8) bool {
		reg := core.NewRegistry(2)
		writer, reader := reg.MustRegister(), reg.MustRegister()
		at := NewAtomic(nil)
		ad := NewAdder(8, nil)
		io := NewIncrementOnly(reg, false)
		var oracle int64
		for _, d := range deltas {
			delta := int64(d)
			at.AddAndGet(delta)
			ad.Add(writer, delta)
			io.Add(writer, delta)
			oracle += delta
		}
		return at.Get() == oracle && ad.Sum() == oracle && io.Get(reader) == oracle
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementOnlyAddLocalTally(t *testing.T) {
	r := core.NewRegistry(4)
	c := NewIncrementOnly(r, false)
	h1 := r.MustRegister()
	h2 := r.MustRegister()
	if got := c.AddLocal(h1, 3); got != 3 {
		t.Fatalf("AddLocal = %d, want 3", got)
	}
	if got := c.AddLocal(h1, 2); got != 5 {
		t.Fatalf("AddLocal = %d, want 5", got)
	}
	// The tally is per-thread, not the counter value.
	if got := c.AddLocal(h2, 1); got != 1 {
		t.Fatalf("AddLocal(h2) = %d, want 1", got)
	}
	if got := c.Get(h1); got != 6 {
		t.Fatalf("Get = %d, want 6", got)
	}
}

func TestIncrementOnlySnapshotCells(t *testing.T) {
	r := core.NewRegistry(8)
	c := NewIncrementOnly(r, false)
	h1 := r.MustRegister()
	h2 := r.MustRegister()
	c.Add(h1, 10)
	c.Add(h2, 20)
	cells := c.SnapshotCells(nil)
	if len(cells) != 2 {
		t.Fatalf("len(cells) = %d, want 2 (high-water)", len(cells))
	}
	if cells[h1.ID()] != 10 || cells[h2.ID()] != 20 {
		t.Fatalf("cells = %v", cells)
	}
	var sum int64
	for _, v := range cells {
		sum += v
	}
	if sum != c.Get(h1) {
		t.Fatalf("cell sum %d != Get %d", sum, c.Get(h1))
	}
	// Reuses dst when it has capacity.
	dst := make([]int64, 0, 8)
	again := c.SnapshotCells(dst)
	if &again[0] != &dst[:1][0] {
		t.Fatal("SnapshotCells did not reuse dst")
	}
}
