package retwis

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// libShape is the parameter set of the repository benchmark's lib_table2
// run: 100 000 users on two worker threads, seed 42, α = 1, the Table-2 mix.
func libShape() Params {
	p := DefaultParams()
	p.Users = 100_000
	p.Threads = 2
	return p
}

// netShape is the net workloads' graph and op stream: 20 000 users.
func netShape() Params {
	p := libShape()
	p.Users = 20_000
	return p
}

// opsHash is the FNV-64a hash of ops, each op's fields little-endian.
func opsHash(next func() Op, n int) uint64 {
	h := fnv.New64a()
	var b [25]byte
	for range n {
		op := next()
		b[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(op.User))
		binary.LittleEndian.PutUint64(b[9:], uint64(op.Target))
		binary.LittleEndian.PutUint64(b[17:], uint64(op.Seq))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGeneratorStreamPinned pins the op streams and the seeded graph of the
// benchmark shapes to hashes recorded before the Zipf sampler was tabled:
// every seeded figure and every parent/change benchmark pair compares runs
// of these exact streams, so a change to the draw order or to a sampler's
// values must fail here, not shift the numbers unseen.
// TestDrawOpsDeterministic only compares a run with itself.
func TestGeneratorStreamPinned(t *testing.T) {
	const n = 1 << 16
	check := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: hash %#x, pinned %#x", name, got, want)
		}
	}

	ops := DrawOps(netShape(), n)
	i := 0
	check("DrawOps", opsHash(func() Op { i++; return ops[i-1] }, n), 0x475bbe433977ffd5)

	p := libShape()
	parts := partitions(p)
	for tid, want := range []uint64{0x7ae9c055da4988c9, 0x1763cb02e521a8d8} {
		g := NewGenerator(tid, p, parts[tid], false)
		check(fmt.Sprintf("lib_table2 worker %d", tid), opsHash(g.Next, n), want)
	}

	g := BuildGraph(netShape())
	h := fnv.New64a()
	var b [8]byte
	for _, fol := range g.Followers {
		binary.LittleEndian.PutUint64(b[:], uint64(len(fol)))
		h.Write(b[:])
		for _, f := range fol {
			binary.LittleEndian.PutUint64(b[:], uint64(f))
			h.Write(b[:])
		}
	}
	check("BuildGraph followers", h.Sum64(), 0x5b8e3072a81bf99c)
}
