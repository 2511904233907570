package segment

import (
	"unsafe"

	"github.com/adjusted-objects/dego/internal/core"
)

// Test views of a directory's internals, promoted to the representations
// that embed it.

// Bound reports the owner of key's node, how many nodes in key's chain hold
// key, and the address of the first.
func (d *Directory[K, V, X]) Bound(key K) (owner, nodes int, addr uintptr) {
	owner = -1
	for n := d.buckets[d.hash(key)&d.mask].Load(); n != nil; n = n.next {
		if n.Key == key {
			if nodes++; nodes == 1 {
				owner, addr = int(n.owner), uintptr(unsafe.Pointer(n))
			}
		}
	}
	return owner, nodes, addr
}

// Slab returns the address range of owner id's current slab and how many
// of its nodes are not yet taken.
func (d *Directory[K, V, X]) Slab(id int) (base, end uintptr, free int) {
	s := d.owners[id].slab
	if cap(s) == 0 {
		return 0, 0, 0
	}
	base = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return base, base + uintptr(cap(s))*unsafe.Sizeof(s[:1][0]), len(s)
}

// InsertAfter reads key's bucket head, runs between, and inserts key from
// the head it read, as an insert whose CAS lost to between's writes does.
// It reports whether the insert published a node.
func (d *Directory[K, V, X]) InsertAfter(h *core.Handle, key K, val V, between func()) bool {
	bucket := &d.buckets[d.hash(key)&d.mask]
	head := bucket.Load()
	between()
	return d.insert(h, bucket, head, key, val) != nil
}
