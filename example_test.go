package dego_test

import (
	"errors"
	"fmt"

	"github.com/adjusted-objects/dego"
)

// ExampleCounter declares a counter profile — blind increments, one reader —
// and lets the planner pick the representation: the paper's (C3, CWSR)
// per-thread cells, no CAS anywhere.
func ExampleCounter() {
	h := dego.MustRegister()
	defer h.Release()

	events, err := dego.Counter(dego.Blind(), dego.SingleReader())
	if err != nil {
		panic(err)
	}
	fmt.Println("plan:", events.Plan())

	for i := 0; i < 1000; i++ {
		events.Inc(h)
	}
	fmt.Println("count:", events.Get(h))
	// Output:
	// plan: Counter (C3, CWSR) → IncrementOnlyCounter
	// count: 1000
}

// ExampleMap declares a commuting-writers map profile. String keys hash with
// the built-in default hasher, so no WithHash is needed; the planner yields
// the extended segmentation of the paper's (M2, CWMR).
func ExampleMap() {
	h := dego.MustRegister()
	defer h.Release()

	m, err := dego.Map[string, int](dego.CommutingWriters(), dego.Capacity(1024))
	if err != nil {
		panic(err)
	}
	fmt.Println("plan:", m.Plan())

	m.Put(h, "alpha", 1)
	m.Put(h, "beta", 2)
	v, ok := m.Get("beta")
	fmt.Println("beta:", v, ok, "len:", m.Len())
	// Output:
	// plan: Map (M2, CWMR) → SegmentedMap
	// beta: 2 true len: 2
}

// ExampleMap_adaptive declares a commuting-writers map with Adaptive: the
// planner yields the contention-adaptive map, here walked through a forced
// promote/demote cycle. Contents survive every representation switch, and
// while promoted the map overlays its segmented shadow on the frozen striped
// backing (updates shadow backed keys, removals tombstone them).
func ExampleMap_adaptive() {
	h := dego.MustRegister()
	defer h.Release()

	m := dego.Must(dego.Map[string, int](dego.CommutingWriters(), dego.Adaptive(),
		dego.Capacity(1024))).Adaptive()
	m.Put(h, "alpha", 1)
	m.Put(h, "beta", 2)
	fmt.Println("state:", m.State(), "len:", m.Len())

	m.ForcePromote()      // striped map freezes as backing, segmented map on top
	m.Put(h, "alpha", 10) // shadows the backed copy
	m.Remove(h, "beta")   // tombstones the backed copy
	m.Put(h, "gamma", 3)  // lives only in the segmented shadow
	a, _ := m.Get("alpha")
	_, betaOK := m.Get("beta")
	fmt.Println("state:", m.State(), "alpha:", a, "beta present:", betaOK)

	m.ForceDemote() // shadow + tombstones drain into a fresh striped map
	g, _ := m.Get("gamma")
	fmt.Println("state:", m.State(), "gamma:", g, "len:", m.Len())
	// Output:
	// state: quiescent len: 2
	// state: promoted alpha: 10 beta present: false
	// state: quiescent gamma: 3 len: 2
}

// ExampleOrdered declares a commuting-writers ordered profile: the planner
// yields the extended segmented skip list of the paper's (M2, CWMR), whose
// iteration stays strictly key-ordered whatever order the keys arrived in.
func ExampleOrdered() {
	h := dego.MustRegister()
	defer h.Release()

	o := dego.Must(dego.Ordered[int, string](dego.CommutingWriters(), dego.Buckets(1024)))
	fmt.Println("plan:", o.Plan())

	for _, k := range []int{30, 10, 50, 20} {
		o.Put(h, k, fmt.Sprintf("v%d", k))
	}
	o.Remove(h, 30)

	o.Range(func(k int, v string) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// plan: Ordered (M2, CWMR) → SegmentedSkipList
	// 10 v10
	// 20 v20
	// 50 v50
}

// ExampleSet declares a commuting-writers membership set: the planner yields
// the segmented set of the paper's (S3, CWMR) node, whose adds are blind.
func ExampleSet() {
	h := dego.MustRegister()
	defer h.Release()

	s := dego.Must(dego.Set[string](dego.CommutingWriters()))
	fmt.Println("plan:", s.Plan())

	s.Add(h, "reader")
	s.Add(h, "writer")
	s.Remove(h, "reader")
	s.Add(h, "admin")
	fmt.Println("reader:", s.Contains("reader"), "admin:", s.Contains("admin"), "len:", s.Len())
	// Output:
	// plan: Set (S3, CWMR) → SegmentedSet
	// reader: false admin: true len: 2
}

// ExampleQueue declares a single-consumer queue profile: the planner yields
// the multi-producer single-consumer queue of the paper's (Q1, MWSR).
func ExampleQueue() {
	h := dego.MustRegister()
	defer h.Release()

	q := dego.Must(dego.Queue[string](dego.SingleReader()))
	fmt.Println("plan:", q.Plan())

	q.Offer(h, "a")
	q.Offer(h, "b")
	v, _ := q.Poll(h)
	fmt.Println("head:", v)
	// Output:
	// plan: Queue (Q1, MWSR) → MPSCQueue
	// head: a
}

// ExampleRef declares a write-once reference profile (the paper's
// Listing 1): initialized once, read forever after without synchronization
// cost; a second initialization fails with ErrAlreadySet.
func ExampleRef() {
	h := dego.MustRegister()
	defer h.Release()

	type config struct{ MaxConns int }
	cfg := dego.Must(dego.Ref[config](nil, dego.WriteOnce()))
	fmt.Println("plan:", cfg.Plan())

	if err := cfg.Set(h, &config{MaxConns: 128}); err != nil {
		panic(err)
	}
	err := cfg.Set(h, &config{MaxConns: 256})
	fmt.Println("second set:", errors.Is(err, dego.ErrAlreadySet))
	fmt.Println("MaxConns:", cfg.Get(h).MaxConns)
	// Output:
	// plan: Ref (R2, ALL) → WriteOnceRef
	// second set: true
	// MaxConns: 128
}

// ExampleErrInvalidProfile shows the planner rejecting an impossible
// declaration at construction: there is no single-reader map in the §4.2
// catalog, so the profile fails with a typed error instead of building an
// object whose contract nothing can certify.
func ExampleErrInvalidProfile() {
	_, err := dego.Map[string, int](dego.SingleReader())
	fmt.Println("invalid:", errors.Is(err, dego.ErrInvalidProfile))

	var perr *dego.InvalidProfileError
	if errors.As(err, &perr) {
		fmt.Println("datatype:", perr.Datatype)
	}
	// Output:
	// invalid: true
	// datatype: Map
}
