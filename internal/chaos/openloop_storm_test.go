package chaos

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
)

// TestChaosOpenLoopStorm runs the open-loop generator through a heavy
// probabilistic fault injector against a live server: every worker dial is
// wrapped, so the measured phase sees latency spikes, torn writes, stalled
// reads and mid-stream resets while the arrival clock keeps ticking.
//
// What must survive the storm is the *accounting*, not the latency: every
// scheduled arrival is either executed, failed, or shed at the backlog
// (Scheduled = Executed + Errors + Dropped with nothing double-counted),
// the run terminates even though connections are being torn under it, and
// shutdown leaves no goroutine behind. This is the property the frontier's
// -chaos mode leans on — a fault storm may move the curve, but it may not
// make the generator lie or wedge.
func TestChaosOpenLoopStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, err := server.New(server.Config{
		Store:    server.StoreConfig{Shards: 2, Kind: server.StoreAdaptive, Capacity: 1024},
		MaxConns: 64,
		Timeout:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	p := retwis.DefaultParams()
	p.Users = 500
	p.MaxDegree = 8
	pt, err := retwis.RunNet(retwis.NetParams{
		Workload: p,
		Addr:     srv.Addr().String(),
		Rate:     4000,
		Ops:      2000,
		Workers:  4,
		Pipeline: 8,
		Process:  loadgen.Poisson,
		Wire: retwis.WireConfig{
			DialTimeout: 2 * time.Second,
			IOTimeout:   10 * time.Second,
			MaxRetries:  8,
			Backoff:     time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
		Fault: &faultnet.Config{
			Seed:             42,
			LatencyProb:      0.05,
			LatencyMax:       200 * time.Microsecond,
			PartialWriteProb: 0.20,
			StallProb:        0.05,
			StallMax:         200 * time.Microsecond,
			ResetProb:        0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !pt.Faulted {
		t.Fatalf("point not marked faulted: %+v", pt)
	}
	if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
		t.Fatalf("accounting leak under faults: executed %d + errors %d + dropped %d != scheduled %d",
			pt.Executed, pt.Errors, pt.Dropped, pt.Scheduled)
	}
	if pt.Executed == 0 {
		t.Fatalf("storm executed nothing: %+v", pt)
	}
	// The storm must have actually bitten: with a 20%% torn-write rate over
	// hundreds of pipeline flushes, the self-healing client retries,
	// re-dials, or surfaces write-batch errors — silence means the injector
	// never wrapped the measured connections.
	if pt.Retries+pt.Reconnects+pt.Errors == 0 {
		t.Fatalf("no retries, reconnects or errors: the storm missed the run (%+v)", pt)
	}
	t.Logf("open-loop storm: executed %d, errors %d, dropped %d, retries %d, reconnects %d, p99 %dµs",
		pt.Executed, pt.Errors, pt.Dropped, pt.Retries, pt.Reconnects, pt.P99us)

	if st := srv.Stats(); st.Panics != 0 {
		t.Errorf("server recovered %d panics during the storm, want 0 (last: %v)",
			st.Panics, srv.Store().LastPanic())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve = %v, want ErrServerClosed", err)
	}

	// Every goroutine the storm spawned — workers, injected conns, server
	// loops — must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
