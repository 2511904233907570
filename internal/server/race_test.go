package server

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/wire"
)

// TestRacePipelinedClientsVsForcedFlapping is the serving-layer analogue of
// the engine's flapping race tests: pipelined TCP clients hammer an
// adaptive store with mixed reads and writes while another goroutine forces
// every range of every shard's map through promote/demote cycles. With one
// shard, every batch contends for one lock; with two, batches span shards,
// so shard units run both inline under a free lock and through the mailbox
// of a taken one. The race detector checks the synchronization, including
// the lock hand-over between connection goroutines and shard loops; each
// GET of a client's counter must read the count its INCR just before it
// returned, and the final counter values check that no write was lost
// across transitions. Wired into `make race` via RACE_PKGS.
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
		Store: StoreConfig{Shards: shards, Capacity: 512, Ranges: 4},
	})
	st := srv.Store()

	var stop atomic.Bool
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		for !stop.Load() {
			for i := 0; i < st.Shards(); i++ {
				st.ForceFlapShard(i)
			}
		}
	}()

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
	stop.Store(true)
	flips.Wait()
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
