// Adaptive: a workload whose contention phase-shifts mid-run, driving the
// contention-adaptive map through its whole state machine:
//
//  1. a lone writer warms the map — the cheap unadjusted representation (the
//     striped map) wins, so it stays quiescent;
//  2. a burst of writers arrives — lock waits push the windowed stall rate
//     over the promotion threshold and the map promotes itself to the
//     adjusted representation (the extended segmentation);
//  3. while the map is promoted, a full Range runs over it — the overlay of
//     the live segmented shadow on the frozen striped backing visits every
//     live key exactly once;
//  4. the burst drains away — the lone survivor's samples show writer
//     concurrency collapsed, and the map demotes again.
//
// Readers run through every phase: representation switches never block them.
// The contents are exact at the end no matter how often the map switched.
// At the end the demo prints the state-transition trace it observed.
//
// The map is the only adaptive object: a counter, set or ordered map
// declared the same way plans its static adjusted representation, which is
// faster in every measured cell (ARCHITECTURE.md, "Why only the map adapts").
package main

import (
	"fmt"
	"runtime"
	"sync"

	dego "github.com/adjusted-objects/dego"
)

const (
	burstWriters = 8
	keyRange     = 4096
	phaseOps     = 400_000
	// maxTrace caps the printed trace: a reader's stripe-lock waits count as
	// stalls, so the map may flap many times in one phase.
	maxTrace = 12
)

// tracer records the map's state every time a worker passes an observation
// point, deduplicating consecutive repeats — the demo's state-transition
// trace. Observing from the workers (rather than a polling goroutine)
// guarantees the trace sees every phase the workers lived through, even on
// a single-CPU host where a background poller might never be scheduled
// inside a short promoted window. The short-lived migrating/demoting states
// only show up when an observation lands inside one; the trace is what was
// observed, not a transition log.
type tracer struct {
	mu    sync.Mutex
	state func() dego.AdaptiveState
	seq   []dego.AdaptiveState
}

func newTracer(state func() dego.AdaptiveState) *tracer {
	t := &tracer{state: state}
	t.observe()
	return t
}

func (t *tracer) observe() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.state(); len(t.seq) == 0 || t.seq[len(t.seq)-1] != s {
		t.seq = append(t.seq, s)
	}
}

func (t *tracer) print() {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := "map trace: "
	for j, s := range t.seq[:min(len(t.seq), maxTrace)] {
		if j > 0 {
			out += " → "
		}
		out += s.String()
	}
	if len(t.seq) > maxTrace {
		out += fmt.Sprintf(" → … (%d more observed states)", len(t.seq)-maxTrace)
	}
	fmt.Println(out)
}

func main() {
	reg := dego.NewRegistry(burstWriters + 8)
	// An eager policy so the demo converges in fractions of a second; the
	// defaults sample 16x less often.
	policy := dego.AdaptivePolicy{SampleEvery: 64, MinSamples: 2, DemoteSamples: 4}
	m := dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.On(reg), dego.Stripes(8),
		dego.Capacity(keyRange), dego.Adaptive(dego.WithPolicy(policy)))).Adaptive()

	traces := newTracer(m.State)

	report := func(phase string) {
		traces.observe()
		fmt.Printf("%-28s map=%-9v transitions=%d len=%d\n", phase+":", m.State(), m.Transitions(), m.Len())
	}

	// A reader runs through every phase; switches never block it.
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stopReader:
				return
			default:
				m.Get(i % keyRange)
			}
		}
	}()

	// models[w] is what writer w last wrote to each key it owns. Only the
	// worker running as w touches it, and phases run one after another.
	var models [burstWriters]map[int]int
	for w := range models {
		models[w] = make(map[int]int)
	}
	work := func(w, ops int) {
		h := reg.MustRegister()
		defer h.Release()
		model := models[w]
		for i := 0; i < ops; i++ {
			// Commuting writes: writer w owns keys k ≡ w (mod burstWriters).
			k := (i%(keyRange/burstWriters))*burstWriters + w
			if i%3 == 0 {
				m.Remove(h, k)
				delete(model, k)
			} else {
				m.Put(h, k, i)
				model[k] = i
			}
			if i&63 == 0 {
				traces.observe()
			}
		}
	}

	// Phase 1: a lone writer — no contention, the cheap representation wins.
	work(0, phaseOps)
	report("phase 1 (lone writer)")

	// Phase 2: contention arrives — the stall rate promotes the map.
	var wg sync.WaitGroup
	for w := 0; w < burstWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w, phaseOps)
		}(w)
	}
	wg.Wait()
	if m.State() == dego.AdaptiveQuiescent && runtime.GOMAXPROCS(0) == 1 {
		// A single-core host cannot produce hardware contention: goroutines
		// timeslice instead of racing, locks never wait. Feed the probe a
		// synthetic stall burst (the same deterministic stand-in the unit
		// tests use) so the demo still walks the machine.
		fmt.Println("  (single CPU: no real contention possible — injecting synthetic stalls)")
		for i := 0; i < 50_000; i++ {
			m.Probe().RecordLockWait()
		}
		work(0, 256) // just enough boundaries to promote, not to re-demote
	}
	report("phase 2 (contention burst)")

	// Phase 3: a full Range over the (ideally promoted) map. The overlay
	// walks the frozen backing, then the shadow-only keys, and must visit
	// every live key exactly once whatever state the flap left us in.
	seen := make(map[int]bool)
	m.Range(func(k, _ int) bool {
		if seen[k] {
			panic(fmt.Sprintf("Range visited key %d twice", k))
		}
		seen[k] = true
		return true
	})
	fmt.Printf("%-28s state=%v keys visited once: %d\n", "phase 3 (full range):", m.State(), len(seen))

	// Phase 4: the burst is gone — the lone survivor demotes the map.
	work(0, phaseOps)
	report("phase 4 (burst subsided)")

	close(stopReader)
	<-readerDone

	want := 0
	lost := 0
	for _, model := range models {
		want += len(model)
		for k, v := range model {
			if got, ok := m.Get(k); !ok || got != v {
				lost++
			}
		}
	}
	if lost > 0 || m.Len() != want {
		fmt.Printf("LOST UPDATES: %d keys differ, len=%d want=%d\n", lost, m.Len(), want)
	} else {
		fmt.Printf("exact across every switch: %d keys after %d transitions\n", want, m.Transitions())
	}
	traces.print()
	stalls := m.Probe().Snapshot()
	fmt.Printf("map stall proxy: %d lock waits, %d transition spins\n", stalls.LockWaits, stalls.SpinWaits)
}
