package server

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkStoreRun times the shard executor on the two batches whose
// allocations TestAllocCeilings pins: 38 commands of the Retwis table-2 mix,
// and a timeline read (GET profile + LRANGE timeline 0 49). Each runs through
// Store.run on a two-shard store with one reused scratch, as a connection
// handler runs its batches. The uncontended cases run one caller, so every
// shard lock is free when asked for; table2-38-contended runs the table-2
// batch from GOMAXPROCS callers at once, one scratch each, so callers queue
// for the two shard locks. ns/cmd divides the elapsed time by the commands
// run, on all callers together.
func BenchmarkStoreRun(b *testing.B) {
	for _, bc := range []struct {
		name       string
		seed, cmds [][][]byte
	}{
		{"table2-38", nil, table2Commands(38)},
		{"timeline-read", timelineSeed(), timelineRead()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := storeRunner(b, bc.seed, bc.cmds)
			for range 64 {
				f()
			}
			b.ReportAllocs()
			for b.Loop() {
				f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.cmds)), "ns/cmd")
		})
	}
	b.Run("table2-38-contended", func(b *testing.B) {
		cmds := table2Commands(38)
		st := newTestStore(b, 2)
		warm := scratchRunner(st, cmds, b.Fatalf)
		for range 64 {
			warm()
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			f := scratchRunner(st, cmds, b.Errorf)
			for pb.Next() {
				f()
			}
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cmds)), "ns/cmd")
	})
}

// storeRunner returns one call of Store.run over cmds, on a two-shard store
// seeded with seed, through a scratchRunner that fails tb on an error reply.
func storeRunner(tb testing.TB, seed, cmds [][][]byte) func() {
	st := newTestStore(tb, 2)
	st.ExecBatch(seed)
	return scratchRunner(st, cmds, tb.Fatalf)
}

// scratchRunner returns one call of st.run over cmds through one scratch it
// reuses; an error reply is reported through fail.
func scratchRunner(st *Store, cmds [][][]byte, fail func(format string, args ...any)) func() {
	var sc scratch
	return func() {
		st.run(&sc, cmds)
		for i := range sc.plans {
			if rep := sc.plans[i].reply(sc.units); rep.IsError() {
				fail("command %q answered %v", cmds[i], rep)
			}
		}
		sc.release()
	}
}

// timelineSeed fills timeline:7 to its 50 entries and sets profile:7.
func timelineSeed() [][][]byte {
	seed := [][][]byte{cmd("SET", "profile:7", "bio")}
	for i := 0; i < 50; i++ {
		seed = append(seed, cmd("LPUSH", "timeline:7", "7:"+strconv.Itoa(i)))
	}
	return seed
}

// timelineRead is one Retwis timeline read of user 7.
func timelineRead() [][][]byte {
	return [][][]byte{cmd("GET", "profile:7"), cmd("LRANGE", "timeline:7", "0", "49")}
}

// table2Commands expands a seeded draw of the Retwis table-2 mix the way
// retwis.NetClient does (this package cannot import it): timeline reads,
// posts fanned out to a few followers, follows, profile updates, group
// joins — cut to exactly n commands.
func table2Commands(n int) [][][]byte {
	rng := rand.New(rand.NewSource(38))
	user := func() string { return strconv.Itoa(rng.Intn(64)) }
	var cmds [][][]byte
	for seq := 60; len(cmds) < n; seq++ {
		u := user()
		switch p := rng.Intn(100); {
		case p < 50:
			cmds = append(cmds, cmd("GET", "profile:"+u), cmd("LRANGE", "timeline:"+u, "0", "49"))
		case p < 65:
			payload := u + ":" + strconv.Itoa(seq)
			cmds = append(cmds, cmd("INCR", "stat:posts"), cmd("ZADD", "posts:"+u, strconv.Itoa(seq), payload),
				cmd("ZREMRANGEBYSCORE", "posts:"+u, "-inf", strconv.Itoa(seq-50)))
			for f := 0; f < 2; f++ {
				tl := "timeline:" + user()
				cmds = append(cmds, cmd("LPUSH", tl, payload), cmd("LTRIM", tl, "0", "49"))
			}
		case p < 80:
			v := user()
			cmds = append(cmds, cmd("SADD", "following:"+u, v), cmd("SADD", "followers:"+v, u),
				cmd("SREM", "following:"+u, v), cmd("SREM", "followers:"+v, u))
		case p < 90:
			cmds = append(cmds, cmd("SET", "profile:"+u, strconv.Itoa(seq)))
		default:
			cmds = append(cmds, cmd("SADD", "community", u))
		}
	}
	return cmds[:n]
}
