// Package alloctest measures what one call allocates, for the tables of
// allocation and byte ceilings. Timing on a shared machine cannot hold a
// line; these counts repeat exactly, so they can. A change may lower a
// ceiling, never raise one. Only tests import it.
package alloctest

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// PerCall runs f a thousand times on one processor and returns the
// allocations and bytes one call made on average. It first runs f 64 times
// on that processor to reach steady state: destinations sized, keys
// present, and every sync.Pool filled on the processor that measures (a
// pool keeps what was put back on the processor that put it, so warming up
// on another one would leave the measured calls a cold pool). The collector
// is off meanwhile: a collection empties the pools, and refilling them
// allocates, which moved the averages by a few thousandths.
func PerCall(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 64; i++ {
		f()
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// Check measures f with PerCall against one row's ceilings: it fails the
// row when f allocates more, or more bytes, than the ceilings allow, and
// logs that the ceilings should be lowered when f allocates less.
func Check(t testing.TB, name string, ceilAllocs, ceilBytes float64, f func()) {
	t.Helper()
	allocs, bytes := PerCall(f)
	if allocs > ceilAllocs || bytes > ceilBytes {
		t.Errorf("%s: %.3f allocations, %.3f B per call; ceiling %g, %g B", name, allocs, bytes, ceilAllocs, ceilBytes)
	} else if allocs < ceilAllocs || bytes < ceilBytes {
		t.Logf("%s: %.3f allocations, %.3f B per call; ceiling %g, %g B — lower the ceiling", name, allocs, bytes, ceilAllocs, ceilBytes)
	}
}
