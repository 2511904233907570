package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// coldQueues is how many queues the cold cases cycle through: at 80 B a
// queue, 10 MB of them, far more than the caches hold, as one timeline
// queue per user is in Retwis.
const coldQueues = 1 << 17

// BenchmarkQueue times both queues at the two ends of their use. hot is
// Figure 6's shape on one bare queue: one consumer polls while the other
// goroutines offer, and an op is one element through the queue, offered
// and polled (a lone goroutine offers and polls it itself). cold is one
// Offer and one Poll per op on the next of coldQueues planned-size queues
// (a three-word facade in Ext), each goroutine cycling through its own
// share of them: what a queue's size costs once no queue stays in cache.
// Run it at -cpu 1,2.
func BenchmarkQueue(b *testing.B) {
	b.Run("hot/MPSC", func(b *testing.B) {
		q := NewMPSC[int](nil, false)
		benchHot(b, q.Offer, func(h *core.Handle) bool { _, ok := q.Poll(h); return ok })
	})
	b.Run("hot/MS", func(b *testing.B) {
		q := NewMS[int](nil)
		benchHot(b, func(_ *core.Handle, v int) { q.Offer(v) }, func(*core.Handle) bool { _, ok := q.Poll(); return ok })
	})
	b.Run("cold/MPSC", func(b *testing.B) {
		qs := make([]*MPSC[int, facade], coldQueues)
		for i := range qs {
			qs[i] = new(MPSC[int, facade])
			qs[i].Init(nil, false)
		}
		benchCold(b, func(h *core.Handle, i int) { qs[i].Offer(h, i); qs[i].Poll(h) })
	})
	b.Run("cold/MS", func(b *testing.B) {
		qs := make([]*MS[int, facade], coldQueues)
		for i := range qs {
			qs[i] = new(MS[int, facade])
			qs[i].Init(nil)
		}
		benchCold(b, func(_ *core.Handle, i int) { qs[i].Offer(i); qs[i].Poll() })
	})
}

// benchHot passes b.N elements through one queue: GOMAXPROCS−1 producers
// offer them between them while the calling goroutine polls until it has
// taken them all, or, under GOMAXPROCS 1, offers and polls each in turn.
func benchHot(b *testing.B, offer func(h *core.Handle, v int), poll func(h *core.Handle) bool) {
	procs := runtime.GOMAXPROCS(0)
	reg := core.NewRegistry(procs)
	consumer := reg.MustRegister()
	b.ReportAllocs()
	b.ResetTimer()
	if procs == 1 {
		for i := 0; i < b.N; i++ {
			offer(consumer, i)
			poll(consumer)
		}
		return
	}
	var wg sync.WaitGroup
	for p := range procs - 1 {
		n := b.N / (procs - 1)
		if p < b.N%(procs-1) {
			n++
		}
		h := reg.MustRegister()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				offer(h, i)
			}
		}()
	}
	for taken := 0; taken < b.N; {
		if poll(consumer) {
			taken++
		}
	}
	wg.Wait()
}

// benchCold runs op on queue indices round-robin from GOMAXPROCS
// goroutines, each over its own residue class of the coldQueues indices,
// so no two goroutines share a queue (an MPSC queue has one consumer).
func benchCold(b *testing.B, op func(h *core.Handle, i int)) {
	procs := runtime.GOMAXPROCS(0)
	reg := core.NewRegistry(procs)
	var ids atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(ids.Add(1) - 1)
		h := reg.MustRegister()
		for i := id; pb.Next(); {
			op(h, i)
			if i += procs; i >= coldQueues {
				i = id
			}
		}
	})
}
