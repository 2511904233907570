//go:build !race

package retwis

import (
	"runtime"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// TestAddUserAllocCeiling pins what registering one user costs on the DEGO
// row, in allocations and bytes per call. AddUser is 5 % of the Table-2 mix
// but allocates most of the mix's bytes: a fresh key in each of four
// segmented tables (node and value box), two empty follower sets, a profile
// and a timeline queue whose facade and representation are one object. A
// change may lower a number here, never raise one. (The race detector
// allocates on its own, hence the build tag.)
func TestAddUserAllocCeiling(t *testing.T) {
	const ceilAllocs, ceilBytes = 12, 440
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	p := testParams(256, 1)
	b, _ := Build(KindDEGO, p, reg)
	u := UserID(p.Users)
	add := func() { b.AddUser(h, u); u++ }
	for i := 0; i < 64; i++ {
		add() // reach steady state
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		add()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if allocs > ceilAllocs || bytes > ceilBytes {
		t.Errorf("AddUser: %.2f allocations, %.0f B per call; ceiling %d, %d B", allocs, bytes, ceilAllocs, ceilBytes)
	} else if allocs < ceilAllocs || bytes < ceilBytes {
		t.Logf("AddUser: %.2f allocations, %.0f B per call; ceiling %d, %d B — lower the ceiling", allocs, bytes, ceilAllocs, ceilBytes)
	}
}
