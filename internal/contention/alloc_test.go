//go:build !race

package contention

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/alloctest"
)

// TestReaderAllocCeiling pins a Reader's phase, Begin and End, at no
// allocation: bench.Run reads one around every measured window. (The race
// detector allocates on its own, hence the build tag.)
func TestReaderAllocCeiling(t *testing.T) {
	r := NewReader()
	alloctest.Check(t, "Reader Begin and End", 0, 0, func() { r.Begin(); r.End() })
}
