//go:build !race

package stats

import (
	"testing"

	"github.com/adjusted-objects/dego/internal/alloctest"
)

// TestZipfianAllocCeiling pins that a draw allocates nothing, skewed or
// uniform: the head table is built once, in NewZipfian. A change may lower
// a number here, never raise one. (The race detector allocates on its own,
// hence the build tag.)
func TestZipfianAllocCeiling(t *testing.T) {
	skewed, uniform := NewZipfian(50_000, 1, 42), NewZipfian(50_000, 0, 42)
	alloctest.Check(t, "Zipfian.Next", 0, 0, func() { sink += skewed.Next() })
	alloctest.Check(t, "Zipfian.Next uniform", 0, 0, func() { sink += uniform.Next() })
}
