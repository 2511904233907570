package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/retwis"
)

// workers is the load of every workload: 2 threads / connections / open-loop
// workers, never more than the 2 cores the reference box has.
const workers = 2

// libBlock is how many consecutive ops one lib_table2 latency sample covers:
// a single in-process op is a few hundred ns, too close to the clock's own
// cost to time alone.
const libBlock = 64

// trial is one measured phase on a fresh backend or server.
type trial struct {
	setup   time.Duration // everything before the first measured op
	ph      phase
	ops     int64   // workload ops completed
	failed  int64   // workload ops whose request failed
	cmds    int64   // RESP commands sent (net) — must repeat exactly
	flushes int64   // requests: pipeline flushes (net) or blocks (lib)
	samples []int64 // one ns sample per request, as its caller saw it
	state   int64   // final-state fingerprint — must repeat exactly
	heapMB  float64 // live heap at the end (probe.heap only)
	net     netExtra
}

// probe selects what a trial records beyond the end-to-end numbers. The
// zero value is the timed run: nothing extra.
type probe struct {
	tr   *tracer // record spans around the calls into the layer
	heap bool    // collect at the end and report the live heap
}

// liveHeapMB collects and returns the live heap; keep points at the state
// that must still count as live.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	mb := float64(readMem().heapLive) / (1 << 20)
	runtime.KeepAlive(keep)
	return mb
}

// graphSeed draws the social graph, which is the benchmark's data set and the
// same on every run; -seed draws what is done to it. The Zipf draw at α = 1
// gives the head user of each thread most of that thread's ops, so a graph
// drawn from -seed would make the fan-out of every post — and with it the
// commands per op, by ±7 % — depend on how many followers that seed happened
// to hand two users.
const graphSeed = 42

// params is the workload every run draws ops from; graphParams is the same
// with the seed the graph is drawn from.
func params(seed int64, users int) retwis.Params {
	p := retwis.DefaultParams() // α = 1, Table-2 mix, MaxDegree 256
	p.Users = users
	p.Threads = workers
	p.Seed = seed
	return p
}

func graphParams(users int) retwis.Params { return params(graphSeed, users) }

func partition(p retwis.Params) [][]retwis.UserID {
	parts := make([][]retwis.UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		parts[u%p.Threads] = append(parts[u%p.Threads], retwis.UserID(u))
	}
	return parts
}

func sumFollowers(b retwis.Backend, users int) int64 {
	var n int64
	for u := 0; u < users; u++ {
		n += int64(b.Followers(retwis.UserID(u)))
	}
	return n
}

// libTrial builds a fresh backend of the given kind and drives opsPerThread
// Table-2 ops on each of 2 threads through the Backend interface — the same
// loop as retwis.Run, owned by the benchmark so it can time blocks and, with
// tr set, record one span per Backend call.
func libTrial(kind retwis.Kind, seed int64, users, opsPerThread int, pr probe) (trial, error) {
	tr := pr.tr
	p := params(seed, users)
	opsPerThread -= opsPerThread % libBlock
	if opsPerThread <= 0 {
		return trial{}, fmt.Errorf("lib trial needs at least %d ops per thread", libBlock)
	}

	t0 := time.Now()
	reg := core.NewRegistry(2*p.Threads + 8)
	// Workers register first so their ids are 0..Threads-1 (DAP's partition
	// index), exactly as retwis.Run does.
	handles := make([]*core.Handle, p.Threads)
	for i := range handles {
		handles[i] = reg.MustRegister()
	}
	b, _ := retwis.Build(kind, graphParams(users), reg)
	parts := partition(p)
	gens := make([]*retwis.Generator, p.Threads)
	samples := make([][]int64, p.Threads)
	for tid := range gens {
		gens[tid] = retwis.NewGenerator(tid, p, parts[tid], kind == retwis.KindDAP)
		samples[tid] = make([]int64, 0, opsPerThread/libBlock)
	}
	setup := time.Since(t0)

	edges0 := sumFollowers(b, p.Users)
	users0 := b.Users()

	var (
		begin    = make(chan struct{})
		started  sync.WaitGroup
		finished sync.WaitGroup
		added    = make([]int64, p.Threads)
		follows  = make([]int64, p.Threads)
	)
	worker := func(tid int) {
		defer finished.Done()
		h, gen := handles[tid], gens[tid]
		tl := make([]retwis.Tweet, retwis.TimelineSize)
		apply := func(op retwis.Op) {
			switch op.Kind {
			case retwis.OpAddUser:
				b.AddUser(h, op.User)
				added[tid]++
			case retwis.OpFollow:
				// Follow then the converse, as §6.3 and retwis.Run.
				b.Follow(h, op.User, op.Target)
				b.Unfollow(h, op.User, op.Target)
				follows[tid]++
			case retwis.OpPost:
				b.Post(h, op.User, retwis.Tweet{Author: op.User, Seq: op.Seq})
			case retwis.OpTimeline:
				b.Timeline(h, op.User, tl)
			case retwis.OpJoinGroup:
				b.JoinGroup(h, op.User)
			case retwis.OpLeaveGroup:
				b.LeaveGroup(h, op.User)
			default:
				b.UpdateProfile(h, op.User, op.Seq)
			}
		}
		started.Done()
		<-begin
		for done := 0; done < opsPerThread; done += libBlock {
			if tr == nil {
				t := time.Now()
				for i := 0; i < libBlock; i++ {
					apply(gen.Next())
				}
				samples[tid] = append(samples[tid], int64(time.Since(t)))
				continue
			}
			req := tr.begin(tid, spanRequest, -1, done/libBlock)
			for i := 0; i < libBlock; i++ {
				op := gen.Next()
				s := tr.begin(tid, opSpan(op.Kind), req, done/libBlock)
				apply(op)
				tr.end(tid, s)
			}
			tr.end(tid, req)
		}
	}

	started.Add(p.Threads)
	finished.Add(p.Threads)
	for tid := 0; tid < p.Threads; tid++ {
		go worker(tid)
	}
	started.Wait()
	var ph phase
	ph.begin()
	close(begin)
	finished.Wait()
	ph.end()

	t := trial{
		setup:   setup,
		ph:      ph,
		ops:     int64(opsPerThread) * int64(p.Threads),
		flushes: int64(opsPerThread/libBlock) * int64(p.Threads),
	}
	for tid := range samples {
		t.samples = append(t.samples, samples[tid]...)
	}

	// Correctness. Users is exact. A follow op is Follow then Unfollow, so it
	// leaves the edge count alone unless the edge was already seeded, when
	// the Unfollow removes it: the count may only fall, by at most one per
	// follow op. The exact value is pinned across trials through t.state.
	var nAdded, nFollows int64
	for tid := range added {
		nAdded += added[tid]
		nFollows += follows[tid]
	}
	if got, want := int64(b.Users()), int64(users0)+nAdded; got != want {
		return t, fmt.Errorf("%s: Users() = %d after the run, want %d seeded + %d added = %d",
			b.Name(), got, users0, nAdded, want)
	}
	edges1 := sumFollowers(b, p.Users)
	if edges1 > edges0 || edges1 < edges0-nFollows {
		return t, fmt.Errorf("%s: follower edges went %d -> %d over %d follow/unfollow pairs",
			b.Name(), edges0, edges1, nFollows)
	}
	t.state = edges1
	if pr.heap {
		t.heapMB = liveHeapMB(b)
	}
	return t, nil
}
