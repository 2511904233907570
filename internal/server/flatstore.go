package server

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/stats"
)

// flatShardMap adapts the planner's integer-keyed flat plan to the shard's
// string-keyed view: keys hash to uint64 (stats.HashString) and each flat
// slot holds a collision chain, so two strings sharing a hash coexist. The
// profile declares SingleWriter — a shard map's only writer is the holder
// of its shard's lock — plus Capacity, which is exactly the flat gate: the planner
// picks FlatSWMRMap (M2, SWMR) and certifies it, and the hot path probes
// one preallocated slot array with no per-entry node allocation (chains
// stay length one until a 64-bit hash collision, which at serving key
// counts is a once-per-epoch event, not a steady-state cost).
//
// Chains are copy-on-write: an update or chain removal rebuilds the nodes
// rather than editing them, so a reader walking a chain it loaded earlier
// (Range callbacks, cross-goroutine Len observers) never sees a node
// mutate underneath it — the same discipline the object bodies follow.
type flatShardMap struct {
	m *dego.AdjustedMap[uint64, *chainEntry]
	// n counts live string keys (the flat map's Len counts occupied hash
	// slots, which undercounts by collided chains). Written under the owning
	// shard's lock, read by Store.Len from any goroutine.
	n atomic.Int64
}

// chainEntry is one string key's node in a hash slot's collision chain.
type chainEntry struct {
	key  string
	obj  *object
	next *chainEntry
}

// newFlatShardMap plans the flat representation for one shard.
func newFlatShardMap(cfg StoreConfig, reg *dego.Registry) (*flatShardMap, error) {
	opts := []dego.Option{dego.SingleWriter(), dego.On(reg), dego.Capacity(cfg.Capacity)}
	if cfg.Record {
		opts = append(opts, dego.WithUsageRecording())
	}
	m, err := dego.Map[uint64, *chainEntry](opts...)
	if err != nil {
		return nil, err
	}
	return &flatShardMap{m: m}, nil
}

// Get returns the object stored under key.
func (f *flatShardMap) Get(key string) (*object, bool) {
	e, ok := f.m.Get(stats.HashString(key))
	if !ok {
		return nil, false
	}
	for ; e != nil; e = e.next {
		if e.key == key {
			return e.obj, true
		}
	}
	return nil, false
}

// Contains reports whether key is present.
func (f *flatShardMap) Contains(key string) bool {
	_, ok := f.Get(key)
	return ok
}

// Put stores key → o. Owning shard's lock holder only (the SWMR
// declaration).
func (f *flatShardMap) Put(h *dego.Handle, key string, o *object) {
	hk := stats.HashString(key)
	head, _ := f.m.Get(hk)
	for e := head; e != nil; e = e.next {
		if e.key == key {
			f.m.Put(h, hk, replaceInChain(head, key, o))
			return
		}
	}
	f.m.Put(h, hk, &chainEntry{key: key, obj: o, next: head})
	f.n.Add(1)
}

// Remove deletes key, reporting whether it was present. Owning shard's
// lock holder only.
func (f *flatShardMap) Remove(h *dego.Handle, key string) bool {
	hk := stats.HashString(key)
	head, ok := f.m.Get(hk)
	if !ok {
		return false
	}
	rest, removed := dropFromChain(head, key)
	if !removed {
		return false
	}
	if rest == nil {
		f.m.Remove(h, hk)
	} else {
		f.m.Put(h, hk, rest)
	}
	f.n.Add(-1)
	return true
}

// Len returns the live key count; safe from any goroutine.
func (f *flatShardMap) Len() int { return int(f.n.Load()) }

// Range iterates every key until fn returns false.
func (f *flatShardMap) Range(fn func(key string, o *object) bool) {
	f.m.Range(func(_ uint64, e *chainEntry) bool {
		for ; e != nil; e = e.next {
			if !fn(e.key, e.obj) {
				return false
			}
		}
		return true
	})
}

// Plan returns the certified flat plan.
func (f *flatShardMap) Plan() dego.Plan { return f.m.Plan() }

// Adaptive returns nil: the flat kind never carries an adaptive engine.
func (f *flatShardMap) Adaptive() *dego.AdaptiveMap[string, *object] { return nil }

// Advise runs the tuning advisor over the inner flat map's recorded usage.
// The advice speaks about the integer-keyed plan the flat kind really
// built, the same object Plan() describes.
func (f *flatShardMap) Advise() (dego.Advice, bool) { return f.m.Advise() }

// replaceInChain rebuilds a chain with key's node carrying o. The caller
// has checked key is present.
func replaceInChain(head *chainEntry, key string, o *object) *chainEntry {
	if head.key == key {
		return &chainEntry{key: key, obj: o, next: head.next}
	}
	return &chainEntry{key: head.key, obj: head.obj, next: replaceInChain(head.next, key, o)}
}

// dropFromChain rebuilds a chain without key's node, reporting whether the
// key was found. Nodes past the dropped one are shared, not copied —
// they're immutable either way.
func dropFromChain(head *chainEntry, key string) (*chainEntry, bool) {
	if head == nil {
		return nil, false
	}
	if head.key == key {
		return head.next, true
	}
	rest, removed := dropFromChain(head.next, key)
	if !removed {
		return head, false
	}
	return &chainEntry{key: head.key, obj: head.obj, next: rest}, true
}
