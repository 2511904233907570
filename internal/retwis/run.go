package retwis

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

// Kind selects a backend implementation.
type Kind int

// Backend kinds.
const (
	KindJUC Kind = iota + 1
	KindDEGO
	KindDAP
	KindADAPTIVE
	KindFLAT
)

// String returns the backend label used in the figures, or Kind(n) for a
// value that names no backend.
func (k Kind) String() string {
	if k < KindJUC || k > kindRecorded {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return [...]string{"", "JUC", "DEGO", "DAP", "ADAPTIVE", "FLAT", "RECORDED"}[k]
}

// Params configures one benchmark run (§6.3).
type Params struct {
	// Users is the initial social-graph size (paper: 100K-1000K).
	Users int
	// Threads is the number of worker threads.
	Threads int
	// Alpha tunes the user-selection power law: near 0 is uniform, 1 is the
	// paper's default bias.
	Alpha float64
	// Duration of the measured phase; OpsPerThread switches to op-count
	// mode when positive.
	Duration     time.Duration
	OpsPerThread int
	// Mix is the operation mix (Table 2).
	Mix Mix
	// MaxDegree caps the power-law follower distribution.
	MaxDegree int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultParams returns a laptop-scale configuration.
func DefaultParams() Params {
	return Params{
		Users:     100_000,
		Threads:   8,
		Alpha:     1,
		Duration:  300 * time.Millisecond,
		Mix:       DefaultMix(),
		MaxDegree: 256,
		Seed:      42,
	}
}

// Result is one measured point.
type Result struct {
	Backend string
	Users   int
	Threads int
	Ops     int64
	Elapsed time.Duration
}

// OpsPerSec returns the total throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// owner returns the thread owning user u on the (degenerate) consistent-hash
// ring.
func owner(u UserID, threads int) int { return int(int64(u) % int64(threads)) }

// newBackend constructs the empty backend of a kind: the unsynchronised DAP
// reference, or the table program over the kind's declaration row (rowOf
// panics on a kind that has none).
func newBackend(kind Kind, p Params, reg *core.Registry) Backend {
	if kind == KindDAP {
		return newDAP(p.Threads)
	}
	return newTableBackend(kind, p.Users, reg)
}

// Build constructs the backend and seeds the social graph following the
// method of §6.3: a directed graph whose in-degree distribution abides by a
// power law (the clustering-boost step of Schweimer et al. is omitted, as in
// the paper). It returns the backend and the priming handles (one per
// partition, ids T..2T-1) used for ownership-correct seeding.
func Build(kind Kind, p Params, reg *core.Registry) (Backend, []*core.Handle) {
	b := newBackend(kind, p, reg)
	primers := make([]*core.Handle, p.Threads)
	for i := range primers {
		primers[i] = reg.MustRegister()
	}
	seed(b, kind, p, primers)
	return b, primers
}

// seed registers the initial users and follower edges, each write issued
// through the handle of the acting user's partition.
func seed(b Backend, kind Kind, p Params, handles []*core.Handle) {
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		b.AddUser(handles[owner(uid, p.Threads)], uid)
	}

	// Follower edges: each user u receives deg(u) followers, deg drawn from
	// a power law; followers are picked with a Zipf-biased sampler (popular
	// users follow more, mirroring the activity skew). A Follow must run on
	// the FOLLOWER's owner thread; under DAP it must stay inside one
	// partition.
	degrees := stats.PowerLawDegrees(p.Users, p.MaxDegree, 2.0, p.Seed)
	pick := stats.NewZipfian(p.Users, p.Alpha, p.Seed+1)
	for u := 0; u < p.Users; u++ {
		uid := UserID(u)
		for d := 0; d < degrees[u]; d++ {
			f := UserID(pick.Next())
			if f == uid {
				continue
			}
			if kind == KindDAP {
				// Remap the follower into u's partition.
				delta := (owner(uid, p.Threads) - owner(f, p.Threads) + p.Threads) % p.Threads
				f = UserID((int(f) + delta) % p.Users)
				if owner(f, p.Threads) != owner(uid, p.Threads) || f == uid {
					continue
				}
			}
			b.Follow(handles[owner(f, p.Threads)], f, uid)
		}
	}
}

// apply executes one generated operation — the single Table-2 dispatch of
// the in-process drivers. tl is the caller's timeline read buffer.
func apply(b Backend, h *core.Handle, op Op, tl []Tweet) {
	switch op.Kind {
	case OpAddUser:
		b.AddUser(h, op.User)
	case OpFollow:
		// Follow, then immediately apply the converse to keep the graph
		// invariant (§6.3); the converse is not measured.
		b.Follow(h, op.User, op.Target)
		b.Unfollow(h, op.User, op.Target)
	case OpPost:
		b.Post(h, op.User, Tweet{Author: op.User, Seq: op.Seq})
	case OpTimeline:
		b.Timeline(h, op.User, tl)
	case OpJoinGroup:
		b.JoinGroup(h, op.User)
	case OpLeaveGroup:
		b.LeaveGroup(h, op.User)
	default:
		b.UpdateProfile(h, op.User, op.Seq)
	}
}

// validate rejects parameters no run can partition: a bad mix, no thread
// (owner would divide by zero), or fewer users than threads.
func (p Params) validate() error {
	if err := p.Mix.Validate(); err != nil {
		return err
	}
	if p.Threads < 1 {
		return fmt.Errorf("retwis: need at least one thread (got %d)", p.Threads)
	}
	if p.Users < p.Threads {
		return fmt.Errorf("retwis: need at least one user per thread (%d < %d)", p.Users, p.Threads)
	}
	return nil
}

// Run executes the benchmark and returns the measurement.
func Run(kind Kind, p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if kind < KindJUC || kind > kindRecorded {
		return Result{}, fmt.Errorf("retwis: unknown backend %v", kind)
	}
	reg := core.NewRegistry(2*p.Threads + 8)

	// Workers register first so their ids are 0..Threads-1 (the DAP
	// partition index); handles are created here and handed to the worker
	// goroutines before they start.
	workers := make([]*core.Handle, p.Threads)
	for i := range workers {
		workers[i] = reg.MustRegister()
	}

	b, _ := Build(kind, p, reg)

	// Partition the initial users.
	partUsers := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		t := owner(UserID(u), p.Threads)
		partUsers[t] = append(partUsers[t], UserID(u))
	}

	var (
		stop     atomic.Bool
		begin    = make(chan struct{})
		started  sync.WaitGroup
		finished sync.WaitGroup
		counts   = make([]int64, p.Threads)
	)

	worker := func(tid int) {
		defer finished.Done()
		h := workers[tid]
		gen := NewGenerator(tid, p, partUsers[tid], kind == KindDAP)
		tl := make([]Tweet, TimelineSize)

		oneOp := func() { apply(b, h, gen.Next(), tl) }

		started.Done()
		<-begin
		n := int64(0)
		if p.OpsPerThread > 0 {
			for i := 0; i < p.OpsPerThread; i++ {
				oneOp()
				n++
			}
		} else {
			for !stop.Load() {
				for i := 0; i < 16; i++ {
					oneOp()
				}
				n += 16
			}
		}
		counts[tid] = n
	}

	started.Add(p.Threads)
	finished.Add(p.Threads)
	for tid := 0; tid < p.Threads; tid++ {
		go worker(tid)
	}
	started.Wait()
	t0 := time.Now()
	close(begin)
	if p.OpsPerThread == 0 {
		time.Sleep(p.Duration)
		stop.Store(true)
	}
	finished.Wait()
	elapsed := time.Since(t0)

	var total int64
	for _, c := range counts {
		total += c
	}
	return Result{
		Backend: kind.String(),
		Users:   p.Users,
		Threads: p.Threads,
		Ops:     total,
		Elapsed: elapsed,
	}, nil
}

// Figure9 regenerates the speedup-vs-JUC table: users × threads, with DEGO,
// the contention-adaptive backend and DAP relative to the JUC baseline.
func Figure9(w io.Writer, base Params, usersList []int, threads []int) error {
	fmt.Fprintf(w, "=== Figure 9: social network speedup over JUC (Table 2 mix, alpha=%.1f) ===\n\n", base.Alpha)
	for _, users := range usersList {
		fmt.Fprintf(w, "## %dK users\n%-10s%12s%12s%12s%14s%12s\n", users/1000,
			"threads", "JUC Mops/s", "DEGO/JUC", "ADPT/JUC", "DAP/JUC", "FLAT/JUC")
		for _, t := range threads {
			p := base
			p.Users = users
			p.Threads = t
			juc, err := Run(KindJUC, p)
			if err != nil {
				return err
			}
			var rel [4]float64
			for i, k := range []Kind{KindDEGO, KindADAPTIVE, KindDAP, KindFLAT} {
				res, err := Run(k, p)
				if err != nil {
					return err
				}
				rel[i] = res.OpsPerSec() / juc.OpsPerSec()
			}
			fmt.Fprintf(w, "%-10d%12.3f%12.2fx%12.2fx%13.2fx%11.2fx\n", t,
				juc.OpsPerSec()/1e6, rel[0], rel[1], rel[2], rel[3])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure10 regenerates the throughput-vs-alpha table (user access
// distribution sweep) for the five backends.
func Figure10(w io.Writer, base Params, alphas []float64) error {
	fmt.Fprintf(w, "=== Figure 10: varying the user access distribution (users=%d, threads=%d) ===\n\n",
		base.Users, base.Threads)
	fmt.Fprintf(w, "%-8s%14s%14s%14s%14s%14s\n", "alpha",
		"JUC Mops/s", "DEGO Mops/s", "ADPT Mops/s", "DAP Mops/s", "FLAT Mops/s")
	for _, a := range alphas {
		p := base
		p.Alpha = a
		var vals [5]float64
		for i, k := range []Kind{KindJUC, KindDEGO, KindADAPTIVE, KindDAP, KindFLAT} {
			res, err := Run(k, p)
			if err != nil {
				return err
			}
			vals[i] = res.OpsPerSec() / 1e6
		}
		fmt.Fprintf(w, "%-8.2f%14.3f%14.3f%14.3f%14.3f%14.3f\n",
			a, vals[0], vals[1], vals[2], vals[3], vals[4])
	}
	return nil
}
