package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/wire"
)

// summary is the machine-readable record of one storm, written to the path
// in $CHAOS_JSON for CI to upload as an artifact.
type summary struct {
	Seed       int64          `json:"seed"`
	Faults     faultnet.Stats `json:"faults"`
	Retries    uint64         `json:"retries"`     // WireKV transport retries
	Reconnects uint64         `json:"reconnects"`  // WireKV re-dials
	AppReplays uint64         `json:"app_replays"` // write batches replayed by the workload
	Server     server.Stats   `json:"server"`
	Clients    int            `json:"clients"`
	Keys       int            `json:"keys_verified"`
	Converged  bool           `json:"converged"`
}

// expected is one client's intended final state: only that client writes
// these keys, so after its replays succeed the server must hold exactly
// this.
type expected struct {
	strs    map[string]string
	members map[string]struct{}
}

// TestChaosStorm drives pipelined self-healing clients through a seeded
// fault storm — latency, torn writes, stalled reads, mid-stream resets —
// while, beside the server, an adaptive map under its own writers is forced
// through promote/demote flapping (flapBeside). When the storm quiesces, every client must converge to exactly
// the state it intended, the server must have recovered zero panics, and
// shutdown must leave no goroutine behind.
func TestChaosStorm(t *testing.T) {
	const (
		clients   = 6
		rounds    = 30
		batch     = 8
		keysEach  = 32
		seed      = 42
		maxReplay = 200
	)
	baseline := runtime.NumGoroutine()

	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.New(faultnet.Config{
		Seed:             seed,
		LatencyProb:      0.05,
		LatencyMax:       200 * time.Microsecond,
		PartialWriteProb: 0.20,
		StallProb:        0.05,
		StallMax:         200 * time.Microsecond,
		ResetProb:        0.01,
	})
	srv, err := server.New(server.Config{
		Listener:     faultnet.WrapListener(inner, in),
		Store:        server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive, Capacity: 1024},
		MaxConns:     128,
		IdleTimeout:  10 * time.Second,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	addr := inner.Addr().String()

	// Forced representation flapping beside the storm.
	stopFlapping := flapBeside(t)

	var (
		appReplays                atomic.Uint64
		sumRetries, sumReconnects atomic.Uint64
		stormDone                 sync.WaitGroup
		quiesced                  = make(chan struct{})
		workers                   sync.WaitGroup
		failures                  = make(chan error, clients)
		verified                  atomic.Int64
	)

	worker := func(cid int) {
		defer workers.Done()
		rng := rand.New(rand.NewSource(int64(cid) + 1))
		kv, err := retwis.DialKVConfig(addr, retwis.WireConfig{
			DialTimeout: 2 * time.Second,
			IOTimeout:   10 * time.Second,
			MaxRetries:  8,
			Backoff:     time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		})
		if err != nil {
			stormDone.Done()
			failures <- fmt.Errorf("client %d: dial: %w", cid, err)
			return
		}
		defer func() {
			st := kv.Stats()
			sumRetries.Add(st.Retries)
			sumReconnects.Add(st.Reconnects)
			kv.Close()
		}()

		exp := expected{strs: map[string]string{}, members: map[string]struct{}{}}
		setKey := fmt.Sprintf("set:%d", cid)

		// execReplay pushes one batch through the storm: WireKV already
		// retries all-read batches; batches containing writes surface
		// *NonRetryableError and are replayed here — every write in the
		// workload is idempotent in effect (SET to a final value, SADD),
		// so replay-until-acknowledged converges even if the dead
		// connection had partially applied the batch.
		execReplay := func(cmds [][][]byte) error {
			for attempt := 0; ; attempt++ {
				_, err := kv.ExecPipe(cmds)
				if err == nil {
					return nil
				}
				if attempt >= maxReplay {
					return fmt.Errorf("client %d: batch still failing after %d replays: %w", cid, attempt, err)
				}
				var nre *retwis.NonRetryableError
				if errors.As(err, &nre) {
					appReplays.Add(1)
				}
				// Reconnect exhaustion also lands here; the next attempt
				// dials fresh either way.
			}
		}

		stormErr := func() error {
			seq := 0
			for round := 0; round < rounds; round++ {
				var cmds [][][]byte
				for i := 0; i < batch; i++ {
					key := fmt.Sprintf("k:%d:%d", cid, rng.Intn(keysEach))
					val := fmt.Sprintf("v:%d:%d", cid, seq)
					seq++
					cmds = append(cmds, [][]byte{[]byte("SET"), []byte(key), []byte(val)})
					exp.strs[key] = val
					member := fmt.Sprintf("m:%d:%d", cid, rng.Intn(keysEach))
					cmds = append(cmds, [][]byte{[]byte("SADD"), []byte(setKey), []byte(member)})
					exp.members[member] = struct{}{}
				}
				if err := execReplay(cmds); err != nil {
					return err
				}
				if round%5 == 4 {
					// Exercise the transport-level read retry path too.
					var reads [][][]byte
					for key := range exp.strs {
						reads = append(reads, [][]byte{[]byte("GET"), []byte(key)})
						if len(reads) == batch {
							break
						}
					}
					if err := execReplay(reads); err != nil {
						return err
					}
				}
			}
			return nil
		}()
		stormDone.Done()
		if stormErr != nil {
			failures <- stormErr
			return
		}

		<-quiesced
		// Calm network: verify exact convergence key by key.
		keys := make([]string, 0, len(exp.strs))
		for k := range exp.strs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			reps, err := kv.ExecPipe([][][]byte{{[]byte("GET"), []byte(k)}})
			if err != nil {
				failures <- fmt.Errorf("client %d: verify GET %s: %w", cid, k, err)
				return
			}
			if got := reps[0].Text(); got != exp.strs[k] {
				failures <- fmt.Errorf("client %d: key %s = %q, want %q", cid, k, got, exp.strs[k])
				return
			}
			verified.Add(1)
		}
		reps, err := kv.ExecPipe([][][]byte{{[]byte("SMEMBERS"), []byte(setKey)}})
		if err != nil {
			failures <- fmt.Errorf("client %d: verify SMEMBERS: %w", cid, err)
			return
		}
		if len(reps[0].Elems) != len(exp.members) {
			failures <- fmt.Errorf("client %d: set has %d members, want %d", cid, len(reps[0].Elems), len(exp.members))
			return
		}
		for _, e := range reps[0].Elems {
			if _, ok := exp.members[e.Text()]; !ok {
				failures <- fmt.Errorf("client %d: unexpected member %q", cid, e.Text())
				return
			}
		}
		verified.Add(1)
	}

	stormDone.Add(clients)
	workers.Add(clients)
	for cid := 0; cid < clients; cid++ {
		go worker(cid)
	}
	stormDone.Wait()
	stopFlapping()
	in.Quiesce()
	close(quiesced)
	workers.Wait()
	close(failures)
	converged := true
	for err := range failures {
		converged = false
		t.Error(err)
	}

	st := srv.Stats()
	if st.Panics != 0 {
		t.Errorf("server recovered %d panics during the storm, want 0 (last: %v)",
			st.Panics, srv.Store().LastPanic())
	}
	fstats := in.Stats()
	if fstats.Total() == 0 {
		t.Error("the storm injected no faults; the suite proved nothing")
	}

	// Graceful shutdown must complete within the deadline with the storm over.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}

	// Zero leaked goroutines: everything the storm spawned has exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Bounded memory: the storm's working set is a few thousand short
	// strings; anything near the bound means buffers grew with the faults.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if mem.HeapAlloc > 256<<20 {
		t.Errorf("HeapAlloc = %d MiB after the storm, want < 256 MiB", mem.HeapAlloc>>20)
	}

	sum := summary{
		Seed:       seed,
		Faults:     fstats,
		Retries:    sumRetries.Load(),
		Reconnects: sumReconnects.Load(),
		AppReplays: appReplays.Load(),
		Server:     st,
		Clients:    clients,
		Keys:       int(verified.Load()),
		Converged:  converged,
	}
	t.Logf("storm summary: %+v", sum)
	if path := os.Getenv("CHAOS_JSON"); path != "" {
		blob, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosShutdownUnderFaults: Shutdown called while faulted connections
// still carry traffic must drain within its deadline and report cleanly —
// replies for accepted batches are flushed even when the transport under
// them is being torn by the injector.
func TestChaosShutdownUnderFaults(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.New(faultnet.Config{
		Seed:             7,
		PartialWriteProb: 0.3,
		StallProb:        0.1,
		StallMax:         time.Millisecond,
	})
	srv, err := server.New(server.Config{
		Listener: faultnet.WrapListener(inner, in),
		Store:    server.StoreConfig{Shards: 1, Capacity: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r, w := wire.NewReader(conn), wire.NewWriter(conn)
	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("DEBUG", "SLEEP", "0.2")
	w.WriteCommandString("GET", "k")
	w.Flush()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}

	// Every reply of the in-flight batch arrives despite torn writes.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i, want := range []string{"OK", "OK", "v"} {
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v (EOF mid-reply would break the drain invariant)", i, err)
		}
		if rep.Text() != want {
			t.Fatalf("reply %d = %v, want %q", i, rep, want)
		}
	}
}

// flapBeside keeps promote/demote covered under the storm's load now that no
// shard map adapts: it runs an adaptive map (CommutingWriters,
// Adaptive(Ranges(4))) beside the server, with two writers that each own
// half its keys and rewrite them round after round, while another goroutine
// forces every range through full promote/demote cycles. The returned stop
// joins them and requires that the ranges flapped and that the map holds
// exactly each key's last write.
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
