package retwis

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/server"
)

// TestDrawOpsDeterministic: the op sequence is byte-identical across draws
// with the same Params — with loadgen.Schedule's matching guarantee, this
// is what makes frontier JSONs reproducible across runs and CI machines.
func TestDrawOpsDeterministic(t *testing.T) {
	p := netTestParams()
	enc := func(ops []Op) []byte {
		var buf bytes.Buffer
		if err := binary.Write(&buf, binary.LittleEndian, ops); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(DrawOps(p, 4000)), enc(DrawOps(p, 4000))
	if !bytes.Equal(a, b) {
		t.Fatal("same Params produced different op sequences")
	}
	q := p
	q.Seed++
	if bytes.Equal(a, enc(DrawOps(q, 4000))) {
		t.Fatal("op sequence ignored the seed")
	}
	// A shorter draw is a prefix of a longer one: the sweep can grow n
	// without reshuffling what earlier arrivals do.
	if prefix := enc(DrawOps(p, 1000)); !bytes.Equal(a[:len(prefix)], prefix) {
		t.Fatal("shorter draw is not a prefix of the longer draw")
	}
}

func TestRunOpenLoopPoint(t *testing.T) {
	np := NetParams{
		Workload: netTestParams(),
		Rate:     2000,
		Ops:      600,
		Workers:  2,
		Pipeline: 8,
	}
	pt, err := RunNet(np)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Store != server.StoreAdaptive || pt.Scheduled != 600 {
		t.Fatalf("point %+v", pt)
	}
	if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
		t.Fatalf("accounting leak: %+v", pt)
	}
	if pt.Executed == 0 || pt.AchievedRate <= 0 {
		t.Fatalf("nothing executed: %+v", pt)
	}
	if pt.P50us > pt.P99us || pt.P99us > pt.P999us || pt.P999us > pt.MaxUs {
		t.Fatalf("percentiles out of order: %+v", pt)
	}
	if pt.Faulted {
		t.Fatalf("clean run marked faulted: %+v", pt)
	}
}

func TestFrontierWalksCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell frontier in short mode")
	}
	base := NetParams{
		Workload: netTestParams(),
		Ops:      250,
		Workers:  2,
		QueueCap: 4096,
	}
	pts, err := Frontier(io.Discard, base, []int{1, 2}, []int{4}, []float64{1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Each cell walks until saturation: at least the first rate ran per
	// shard count, and cells appear in order.
	if len(pts) < 2 {
		t.Fatalf("%d points, want at least one per shard count", len(pts))
	}
	shards := map[int]bool{}
	for _, pt := range pts {
		shards[pt.Shards] = true
		if pt.Store != server.StoreAdaptive || pt.Pipeline != 4 {
			t.Fatalf("cell parameters lost: %+v", pt)
		}
		if pt.Executed+pt.Errors+pt.Dropped != pt.Scheduled {
			t.Fatalf("accounting leak: %+v", pt)
		}
	}
	if !shards[1] || !shards[2] || pts[0].Shards != 1 {
		t.Fatalf("cells out of order or missing: %+v", pts)
	}
	// The frontier is the CI artifact: it must serialize round-trip.
	blob, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	var back []NetPoint
	if err := json.Unmarshal(blob, &back); err != nil || len(back) != len(pts) {
		t.Fatalf("frontier JSON round trip: %v", err)
	}
}

// TestCoordinatedOmissionDemonstration is the textbook disagreement made a
// unit test: inject one deterministic ~100ms hiccup (two scripted 50ms
// read stalls) into both a closed-loop and an open-loop run of the same
// workload over the same store.
//
// The closed loop measures service time: the 8 ops of each stalled flush
// record ~50ms, but while the client was blocked it simply issued nothing —
// the requests that would have arrived during the stall are never
// measured. 16 slow samples out of 2048 sit above the 99th percentile, so
// closed-loop p99 stays flat. The open loop fixes arrivals in advance and
// measures from intended start, so every arrival scheduled during the
// hiccup records its queueing delay: open-loop p99 absorbs the stall.
func TestCoordinatedOmissionDemonstration(t *testing.T) {
	const (
		stall      = 50 * time.Millisecond
		stallReads = 2
		totalOps   = 2048
		pipeline   = 8
		rate       = 2000.0
	)
	p := netTestParams()
	p.Users = 256
	p.Threads = 1
	p.OpsPerThread = totalOps

	stallCfg := faultnet.Config{StallAfter: 100, StallCount: stallReads, StallFor: stall}

	// Closed loop: one connection, service-time measurement, faulted dialer.
	closedInjector := faultnet.New(stallCfg)
	closed, err := RunNet(NetParams{
		Workload: p,
		Process:  loadgen.Closed,
		Ops:      totalOps,
		Workers:  1,
		Pipeline: pipeline,
		Wire:     WireConfig{Dialer: closedInjector.Dialer()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if closedInjector.Stats().Stalls != stallReads {
		t.Fatalf("closed loop: %d stalls fired, want %d — the hiccup missed the run",
			closedInjector.Stats().Stalls, stallReads)
	}

	// Open loop: same store, same op budget, arrivals fixed at 2000/s.
	open, err := RunNet(NetParams{
		Workload: p,
		Rate:     rate,
		Ops:      totalOps,
		Workers:  1,
		Pipeline: pipeline,
		QueueCap: totalOps,
		Process:  loadgen.Uniform,
		Fault:    &stallCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Dropped != 0 || open.Errors != 0 {
		t.Fatalf("open loop dropped/errored: %+v", open)
	}

	stallUs := uint64(stall.Microseconds())

	// The stall demonstrably hit the closed-loop run (its max carries it)…
	if closed.MaxUs < stallUs {
		t.Fatalf("closed-loop max %dµs < stall %dµs: hiccup not in the measured phase", closed.MaxUs, stallUs)
	}
	// …but closed-loop p99 misses it entirely: 2 slow flushes (16 ops out
	// of 2048) sit above the 99th percentile. (Generous bound for CI jitter — the
	// point is the order-of-magnitude gap to the stall.)
	if closed.P99us >= stallUs/2 {
		t.Fatalf("closed-loop p99 = %dµs, expected it to hide the %dµs stall", closed.P99us, stallUs)
	}
	// Open-loop p99 absorbs it: ~200 arrivals were scheduled during the
	// ~100ms outage, half of them waited at least the full 50ms stall —
	// far more than 1%% of 2048 samples.
	if open.P99us < stallUs {
		t.Fatalf("open-loop p99 = %dµs, want >= the %dµs stall (queueing delay coordinated away)", open.P99us, stallUs)
	}
	t.Logf("closed-loop p99 %dµs (max %dµs) vs open-loop p99 %dµs under a %v stall",
		closed.P99us, closed.MaxUs, open.P99us, stall)
}
