package hashmap

import (
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/segment"
)

// Segmented is the paper's ExtendedSegmentedHashMap — the adjusted object
// (M2, CWMR): the extended segmentation's directory (segment.Directory)
// itself, with nothing added to its node {key, owner, value box, chain}.
// Each key is bound, on first insert, to the thread that inserted it; the
// binding survives removal, and writes never contend as long as distinct
// threads write distinct keys. Range is the directory's, bucket by bucket.
type Segmented[K comparable, V any] struct {
	segment.Directory[K, V, struct{}]
}

// NewSegmented creates a segmented map over a registry. dirBuckets sizes the
// directory, rounded up to a power of two; it never grows, so it should be
// of the order of the expected key count. capacity is unused — the directory
// is the whole table — and stays because callers outside this module build
// the map with this signature. When checked is true, every write runs the
// SWMR guard of the key's owner — a violated CWMR contract (two threads
// writing the same key) trips it.
func NewSegmented[K comparable, V any](r *core.Registry, capacity, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K, V] {
	return &Segmented[K, V]{segment.MakeDirectory[K, V, struct{}](r, dirBuckets, hash, checked)}
}
