//go:build !race

package retwis

import (
	"runtime"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// TestAddUserAllocCeiling pins what the per-user writes cost on the DEGO
// row, in allocations and bytes per call. AddUser is 5 % of the Table-2 mix
// but allocates most of the mix's bytes: a fresh key in each of four
// segmented tables (node and value box), two empty follower sets and a
// timeline queue whose facade and representation are one object; the
// profile is the value in its box. UpdateProfile replaces that value, which
// costs the box alone. A change may lower a number here, never raise one.
// (The race detector allocates on its own, hence the build tag.)
func TestAddUserAllocCeiling(t *testing.T) {
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	p := testParams(256, 1)
	b, _ := Build(KindDEGO, p, reg)
	u := UserID(p.Users)
	version := int64(0)
	for _, row := range []struct {
		name                  string
		ceilAllocs, ceilBytes float64
		f                     func()
	}{
		{"AddUser", 11, 320, func() { b.AddUser(h, u); u++ }},
		{"UpdateProfile", 1, 8, func() { version++; b.UpdateProfile(h, 0, version) }},
	} {
		for i := 0; i < 64; i++ {
			row.f() // reach steady state
		}
		allocs, bytes := perCall(row.f)
		if allocs > row.ceilAllocs || bytes > row.ceilBytes {
			t.Errorf("%s: %.2f allocations, %.0f B per call; ceiling %.0f, %.0f B", row.name, allocs, bytes, row.ceilAllocs, row.ceilBytes)
		} else if allocs < row.ceilAllocs || bytes < row.ceilBytes {
			t.Logf("%s: %.2f allocations, %.0f B per call; ceiling %.0f, %.0f B — lower the ceiling", row.name, allocs, bytes, row.ceilAllocs, row.ceilBytes)
		}
	}
}

// perCall runs f a thousand times on one processor and returns the
// allocations and bytes one call made on average.
func perCall(f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}
