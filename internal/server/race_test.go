package server

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/wire"
)

// TestRacePipelinedClientsVsForcedFlapping is the serving-layer analogue of
// the engine's flapping race tests: pipelined TCP clients hammer the store
// with mixed reads and writes while, beside them, an adaptive map's own
// writers run and another goroutine forces every range of it through
// promote/demote cycles (flapBeside). With one shard, every batch contends
// for one lock; with two, batches span shards, so a connection goroutine
// takes one lock after another, finding each free or waiting for it. The
// race detector checks the synchronization, including the lock hand-over
// between connection goroutines; each GET of a client's counter
// must read the count its INCR just before it returned, and the final
// counter values check that no write was lost. Wired into `make race` via
// RACE_SERVER_PKGS.
func TestRacePipelinedClientsVsForcedFlapping(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			racePipelinedClients(t, shards)
		})
	}
}

func racePipelinedClients(t *testing.T, shards int) {
	const (
		clients  = 4
		rounds   = 30
		pipeline = 16
	)

	srv := startTestServer(t, Config{
		Store: StoreConfig{Shards: shards, Capacity: 512},
	})
	st := srv.Store()
	stopFlapping := flapBeside(t)

	var workers sync.WaitGroup
	errs := make(chan error, clients)
	for cid := 0; cid < clients; cid++ {
		workers.Add(1)
		go func(cid int) {
			defer workers.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r, w := wire.NewReader(conn), wire.NewWriter(conn)
			ctr := fmt.Sprintf("ctr:%d", cid)
			for round := 0; round < rounds; round++ {
				// One pipeline flush: INCR my counter, SET a key, GET my
				// counter, SADD a shared set.
				for i := 0; i < pipeline; i++ {
					w.WriteCommandString("INCR", ctr)
					w.WriteCommandString("SET", fmt.Sprintf("k:%d:%d", cid, i), "v")
					w.WriteCommandString("GET", ctr)
					w.WriteCommandString("SADD", "shared", fmt.Sprintf("m%d", i))
				}
				if err := w.Flush(); err != nil {
					errs <- err
					return
				}
				for i := 0; i < 4*pipeline; i++ {
					rep, err := r.ReadReply()
					if err != nil {
						errs <- fmt.Errorf("client %d round %d reply %d: %w", cid, round, i, err)
						return
					}
					if rep.IsError() {
						errs <- fmt.Errorf("client %d: error reply %v", cid, rep)
						return
					}
					// The INCR and the GET after it both see this count.
					count := int64(round*pipeline + i/4 + 1)
					if (i%4 == 0 && rep.Int != count) || (i%4 == 2 && rep.Text() != strconv.FormatInt(count, 10)) {
						errs <- fmt.Errorf("client %d round %d reply %d = %v, want count %d", cid, round, i, rep, count)
						return
					}
				}
			}
		}(cid)
	}
	workers.Wait()
	stopFlapping()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// No increment lost: each connection's counter saw exactly
	// rounds*pipeline INCRs.
	for cid := 0; cid < clients; cid++ {
		rep := st.Exec(cmd("GET", fmt.Sprintf("ctr:%d", cid)))
		if want := fmt.Sprintf("%d", rounds*pipeline); rep.Text() != want {
			t.Fatalf("ctr:%d = %v, want %s", cid, rep, want)
		}
	}
	rep := st.Exec(cmd("SMEMBERS", "shared"))
	if len(rep.Elems) != pipeline {
		t.Fatalf("shared set has %d members, want %d", len(rep.Elems), pipeline)
	}
}

// flapBeside keeps promote/demote under load covered now that no shard map
// adapts: it runs an adaptive map (CommutingWriters, Adaptive(Ranges(4)))
// beside the served traffic, with two writers that each own half its keys
// and rewrite them round after round, while another goroutine forces every
// range through full promote/demote cycles. The returned stop joins them
// and requires that the ranges flapped and that the map holds exactly each
// key's last write.
func flapBeside(t *testing.T) (stop func()) {
	t.Helper()
	const writers, keys = 2, 64
	reg := dego.NewRegistry(writers + 1)
	m, err := dego.Map[string, int](dego.On(reg), dego.CommutingWriters(), dego.Adaptive(dego.Ranges(4)))
	if err != nil {
		t.Fatal(err)
	}
	ad := m.Adaptive()
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("flap:%d", k)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	last := make([]int, writers) // last[w] is writer w's final round
	for w := range writers {
		h := reg.MustRegister()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer h.Release()
			for r := 1; r == 1 || !done.Load(); r++ {
				for k := w; k < keys; k += writers {
					m.Put(h, names[k], r)
				}
				last[w] = r
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for first := true; first || !done.Load(); first = false {
			for r := range ad.Ranges() {
				ad.ForcePromoteRange(r)
			}
			for r := range ad.Ranges() {
				ad.ForceDemoteRange(r)
			}
		}
	}()
	return func() {
		t.Helper()
		done.Store(true)
		wg.Wait()
		if ad.Transitions() == 0 {
			t.Error("the adaptive map beside the traffic never changed representation")
		}
		if n := m.Len(); n != keys {
			t.Errorf("adaptive map holds %d keys, want %d", n, keys)
		}
		for k, name := range names {
			if v, ok := m.Get(name); !ok || v != last[k%writers] {
				t.Errorf("adaptive map %s = (%d, %v), want its writer's last round %d", name, v, ok, last[k%writers])
			}
		}
	}
}
