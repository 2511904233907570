package retwis

import (
	"slices"
	"testing"
)

// TestUserHashKeepsIDOrder pins the property the DEGO row's directory is
// sized for: userHash keeps id order in the bits a 2^18-bucket directory
// (Buckets(2 * users) at lib_table2's 100 000 users) reads. It is a
// bijection, so no two ids share a hash; the dense ids [0, 2^17) fill
// distinct buckets; and each fresh id a worker adds lands within 8 buckets
// (one cache line of bucket heads) of the one it added before, except where
// the two ids lie in different 2^16 blocks, whose block numbers fold into
// the low bits. A hash that mixes every bit passes the first check only.
func TestUserHashKeepsIDOrder(t *testing.T) {
	hashes := make([]uint64, 1<<20)
	for u := range hashes {
		hashes[u] = userHash(UserID(u))
	}
	slices.Sort(hashes)
	for i := 1; i < len(hashes); i++ {
		if hashes[i] == hashes[i-1] {
			t.Fatalf("two ids below 2^20 share hash %#x", hashes[i])
		}
	}

	const mask = 1<<18 - 1
	taken := make([]bool, mask+1)
	for u := UserID(0); u < 1<<17; u++ {
		b := userHash(u) & mask
		if taken[b] {
			t.Fatalf("id %d shares bucket %d of 2^18 with a smaller id", u, b)
		}
		taken[b] = true
	}

	p := libShape()
	for tid, mine := range partitions(p) {
		g := NewGenerator(tid, p, mine, false)
		prev, pairs := UserID(-1), 0
		for prev < mask {
			op := g.Next()
			if op.Kind != OpAddUser {
				continue
			}
			if prev >= 0 && prev>>16 == op.User>>16 {
				d := int64(userHash(op.User)&mask) - int64(userHash(prev)&mask)
				if d < -8 || d > 8 {
					t.Fatalf("worker %d: fresh id %d lands %d buckets from fresh id %d", tid, op.User, d, prev)
				}
				pairs++
			}
			prev = op.User
		}
		if pairs < 1<<15 {
			t.Fatalf("worker %d: only %d consecutive fresh-id pairs checked", tid, pairs)
		}
	}
}
