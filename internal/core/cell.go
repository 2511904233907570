package core

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Cell is one published value: a pointer slot written with one atomic store
// or swap and read with one atomic load, the setVolatile of a reference by
// which §5.3 publishes a map value. A nil slot means absent. A structure
// picks the form of all its cells once, at construction (FormFor):
//
//   - direct, for a pointer-shaped V (pointer, unsafe.Pointer, map or
//     channel): the slot holds the value itself, so a store allocates
//     nothing, and a stored nil is the address of nilValue;
//   - boxed, for any other V: the slot holds a fresh box per store.
//
// A read's linearization point is its one load, a write's its one store or
// swap; there is no second word. So a read racing a remove and a re-put of
// one key sees the old value, absent or the new value, whichever the slot
// held at its load.
type Cell[V any] struct{ p unsafe.Pointer }

// nilValue is the sentinel a direct cell holds for a stored nil. It has a
// size, so its address is no other variable's.
var nilValue byte

// CellForm is the form of every cell of one structure.
type CellForm[V any] struct{ direct bool }

// FormFor returns V's form: direct when V is pointer-shaped, else boxed.
func FormFor[V any]() CellForm[V] {
	switch reflect.TypeFor[V]().Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan:
		return CellForm[V]{direct: true}
	}
	return CellForm[V]{}
}

// slot returns what a cell holds for v. Only the boxed branch allocates:
// taking &v for the box would move v to the heap on both branches.
func (f CellForm[V]) slot(v V) unsafe.Pointer {
	if !f.direct {
		box := new(V)
		*box = v
		return unsafe.Pointer(box)
	}
	if p := *(*unsafe.Pointer)(unsafe.Pointer(&v)); p != nil {
		return p
	}
	return unsafe.Pointer(&nilValue)
}

// Load returns c's value, and false when c is absent.
func (f CellForm[V]) Load(c *Cell[V]) (V, bool) {
	p := atomic.LoadPointer(&c.p)
	var v V
	switch {
	case p == nil:
		return v, false
	case !f.direct:
		return *(*V)(p), true
	case p != unsafe.Pointer(&nilValue):
		v = *(*V)(unsafe.Pointer(&p))
	}
	return v, true
}

// Store publishes v in c.
func (f CellForm[V]) Store(c *Cell[V], v V) { atomic.StorePointer(&c.p, f.slot(v)) }

// Swap publishes v in c, reporting whether c held a value.
func (f CellForm[V]) Swap(c *Cell[V], v V) bool { return atomic.SwapPointer(&c.p, f.slot(v)) != nil }

// Clear makes c absent, reporting whether it held a value.
func (c *Cell[V]) Clear() bool { return atomic.SwapPointer(&c.p, nil) != nil }
