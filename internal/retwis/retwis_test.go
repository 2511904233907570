package retwis

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/loadgen"
)

func testParams(users, threads int) Params {
	p := DefaultParams()
	p.Users = users
	p.Threads = threads
	p.OpsPerThread = 500
	p.MaxDegree = 32
	return p
}

func TestMixTable2(t *testing.T) {
	m := DefaultMix()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The exact Table 2 percentages.
	if m.AddUser != 5 || m.Follow != 5 || m.Post != 15 ||
		m.Timeline != 60 || m.Group != 5 || m.Profile != 10 {
		t.Fatalf("mix = %+v, want Table 2", m)
	}
	bad := Mix{AddUser: 50, Follow: 50, Post: 50}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid mix accepted")
	}
}

// allKinds is every backend Build can construct, the advisor's RECORDED row
// included: it runs the same program, so it owes the same semantics.
var allKinds = []Kind{KindJUC, KindDEGO, KindDAP, KindADAPTIVE, KindFLAT, kindRecorded}

func eachBackend(t *testing.T, users, threads int, f func(t *testing.T, b Backend, h []*core.Handle)) {
	t.Helper()
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			reg := core.NewRegistry(2*threads + 8)
			workers := make([]*core.Handle, threads)
			for i := range workers {
				workers[i] = reg.MustRegister()
			}
			p := testParams(users, threads)
			b, _ := Build(kind, p, reg)
			f(t, b, workers)
		})
	}
}

func TestBackendSemantics(t *testing.T) {
	const users, threads = 64, 4
	eachBackend(t, users, threads, func(t *testing.T, b Backend, workers []*core.Handle) {
		if got := b.Users(); got != users {
			t.Fatalf("Users = %d, want %d", got, users)
		}
		// u=1 is owned by thread 1; u=5 too (5 mod 4 = 1).
		h := workers[1]
		// The seeded graph may already contain the edge 1→5: clear it first.
		b.Unfollow(h, 1, 5)
		before := b.Followers(5)
		b.Follow(h, 1, 5)
		if got := b.Followers(5); got != before+1 {
			t.Fatalf("Followers(5) = %d, want %d", got, before+1)
		}
		b.Unfollow(h, 1, 5)
		if got := b.Followers(5); got != before {
			t.Fatalf("after unfollow Followers(5) = %d, want %d", got, before)
		}

		// Group membership.
		if b.InGroup(5) {
			b.LeaveGroup(h, 5)
		}
		b.JoinGroup(h, 5)
		if !b.InGroup(5) {
			t.Fatal("JoinGroup did not register")
		}
		b.LeaveGroup(h, 5)
		if b.InGroup(5) {
			t.Fatal("LeaveGroup did not apply")
		}

		// Post/timeline: 1 follows 5, 5 posts, 1 reads.
		b.Follow(h, 1, 5)
		b.Post(h, 5, Tweet{Author: 5, Seq: 99})
		tl := make([]Tweet, TimelineSize)
		n := b.Timeline(workers[1], 1, tl)
		found := false
		for i := 0; i < n; i++ {
			if tl[i].Author == 5 && tl[i].Seq == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("timeline of follower missed the tweet (n=%d)", n)
		}
		// A second read returns nothing new.
		if n := b.Timeline(workers[1], 1, tl); n != 0 {
			t.Fatalf("second timeline read = %d messages, want 0", n)
		}
		b.UpdateProfile(h, 5, 7)
	})
}

func TestTimelineKeepsLastN(t *testing.T) {
	const users, threads = 16, 2
	eachBackend(t, users, threads, func(t *testing.T, b Backend, workers []*core.Handle) {
		h1 := workers[1]
		// User 3 follows user 5; both are owned by thread 1, so the
		// scenario is valid even under DAP's intra-partition contract.
		b.Follow(h1, 3, 5)
		b.Timeline(h1, 3, make([]Tweet, TimelineSize)) // clear pre-seeded entries
		for i := 0; i < TimelineSize+20; i++ {
			b.Post(h1, 5, Tweet{Author: 5, Seq: int64(i)})
		}
		tl := make([]Tweet, TimelineSize)
		n := b.Timeline(h1, 3, tl)
		if n != TimelineSize {
			t.Fatalf("timeline = %d messages, want %d", n, TimelineSize)
		}
		// Must be the LAST 50: sequences 20..69.
		if tl[0].Seq != 20 || tl[n-1].Seq != int64(TimelineSize+19) {
			t.Fatalf("window = [%d, %d], want [20, %d]", tl[0].Seq, tl[n-1].Seq, TimelineSize+19)
		}
	})
}

func TestGraphSeedIsPowerLaw(t *testing.T) {
	reg := core.NewRegistry(24)
	p := testParams(2000, 4)
	b, _ := Build(KindJUC, p, reg)
	// Some user must have far more followers than the median — the heavy
	// tail of the power law.
	maxF, withAny := 0, 0
	for u := 0; u < p.Users; u++ {
		f := b.Followers(UserID(u))
		if f > maxF {
			maxF = f
		}
		if f > 0 {
			withAny++
		}
	}
	if maxF < 8 {
		t.Fatalf("max followers = %d; degree distribution has no tail", maxF)
	}
	if withAny < p.Users/10 {
		t.Fatalf("only %d users have followers", withAny)
	}
}

func TestRunAllBackends(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			p := testParams(512, 4)
			res, err := Run(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != int64(p.Threads*p.OpsPerThread) {
				t.Fatalf("ops = %d, want %d", res.Ops, p.Threads*p.OpsPerThread)
			}
			if res.OpsPerSec() <= 0 {
				t.Fatal("non-positive throughput")
			}
			if res.Backend != kind.String() {
				t.Fatalf("backend label = %q", res.Backend)
			}
		})
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	p := testParams(2, 4) // fewer users than threads
	if _, err := Run(KindJUC, p); err == nil {
		t.Fatal("accepted users < threads")
	}
	p = testParams(512, 4)
	p.Mix = Mix{AddUser: 10}
	if _, err := Run(KindJUC, p); err == nil {
		t.Fatal("accepted invalid mix")
	}
	for _, threads := range []int{0, -1} {
		p = testParams(512, threads)
		if _, err := Run(KindJUC, p); err == nil {
			t.Fatalf("Run accepted %d threads", threads)
		}
		if _, err := AdviseRun(p); err == nil {
			t.Fatalf("AdviseRun accepted %d threads", threads)
		}
	}
	for _, kind := range []Kind{0, 99} {
		if _, err := Run(kind, testParams(512, 4)); err == nil {
			t.Fatalf("Run accepted %v", kind)
		}
		if got, want := kind.String(), fmt.Sprintf("Kind(%d)", int(kind)); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	for _, users := range []int{0, -1} {
		np := NetParams{Workload: testParams(users, 1), Process: loadgen.Closed, Ops: 10}
		if _, err := RunNet(np); err == nil {
			t.Fatalf("RunNet accepted %d users", users)
		}
	}
}

func TestFigure9And10Printers(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	p := testParams(512, 2)
	p.OpsPerThread = 200

	var sb strings.Builder
	if err := Figure9(&sb, p, []int{512}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9", "0K users", "DEGO/JUC", "ADPT/JUC", "DAP/JUC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure9 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := Figure10(&sb, p, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	for _, want := range []string{"Figure 10", "alpha", "DEGO Mops/s", "ADPT Mops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure10 output missing %q:\n%s", want, out)
		}
	}
}

// TestRunPreservesInvariants: after a full mixed run, the backend's state
// still satisfies the application invariants — user count only grew, and
// the follow/unfollow converse-application rule (§6.3) kept the seeded
// social graph intact for a probe user.
func TestRunPreservesInvariants(t *testing.T) {
	for _, kind := range []Kind{KindJUC, KindDEGO, KindDAP, KindADAPTIVE, KindFLAT} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			reg := core.NewRegistry(24)
			workers := make([]*core.Handle, 4)
			for i := range workers {
				workers[i] = reg.MustRegister()
			}
			p := testParams(1000, 4)
			b, _ := Build(kind, p, reg)
			before := b.Followers(1)
			res, err := Run(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("no ops")
			}
			// A fresh build of the same seed reproduces the same graph.
			reg2 := core.NewRegistry(24)
			b2, _ := Build(kind, p, reg2)
			if got := b2.Followers(1); got != before {
				t.Fatalf("graph seeding not deterministic: %d vs %d", got, before)
			}
			if b2.Users() != p.Users {
				t.Fatalf("users = %d, want %d", b2.Users(), p.Users)
			}
		})
	}
}

// TestDeclarationTable pins what the planner makes of each kind's row: a
// row edit that silently changes the representation behind a figure (or the
// declaration the advisor is scored against) fails here. Every row stores
// each user's timeline as the queue it declared, facade and all; only the
// recorded row's user 0 carries a recorder.
func TestDeclarationTable(t *testing.T) {
	type plan struct{ rep, declared string }
	for _, tc := range []struct {
		kind     Kind
		maps     plan
		set      plan
		queue    plan
		recorded bool
	}{
		{KindJUC, plan{"StripedMap", "(M1, ALL)"}, plan{"StripedSet", "(S1, ALL)"}, plan{"MSQueue", "(Q1, ALL)"}, false},
		{KindDEGO, plan{"SegmentedMap", "(M2, CWMR)"}, plan{"SegmentedSet", "(S3, CWMR)"}, plan{"MPSCQueue", "(Q1, MWSR)"}, false},
		{KindFLAT, plan{"FlatMap", "(M2, CWMR)"}, plan{"FlatSet", "(S3, CWMR)"}, plan{"MPSCQueue", "(Q1, MWSR)"}, false},
		{kindRecorded, plan{"StripedMap", "(M1, ALL)"}, plan{"StripedSet", "(S1, ALL)"}, plan{"MSQueue", "(Q1, ALL)"}, true},
		{KindADAPTIVE, plan{"AdaptiveMap", "(M2, CWMR)"}, plan{"SegmentedSet", "(S3, CWMR)"}, plan{"MPSCQueue", "(Q1, MWSR)"}, false},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			reg := core.NewRegistry(16)
			built, _ := Build(tc.kind, testParams(8, 2), reg)
			check := func(name string, got dego.Plan, want plan) {
				t.Helper()
				if got.Rep != want.rep || got.Declared() != want.declared {
					t.Errorf("%s: planned %s %s, want %s %s", name, got.Rep, got.Declared(), want.rep, want.declared)
				}
			}
			b := built.(*tableBackend)
			for _, u := range []UserID{0, 1} {
				q, ok := b.timelines.Get(u)
				if !ok {
					t.Fatalf("user %d has no timeline", u)
				}
				check(fmt.Sprintf("timeline of user %d", u), q.Plan(), tc.queue)
				if _, rec := q.Advise(); rec != (tc.recorded && u == 0) {
					t.Errorf("timeline of user %d carries a usage recorder = %v", u, rec)
				}
			}
			for name, got := range map[string]dego.Plan{"followers": b.followers.Plan(), "following": b.following.Plan(),
				"timelines": b.timelines.Plan(), "profiles": b.profiles.Plan()} {
				check(name, got, tc.maps)
			}
			check("community", b.community.Plan(), tc.set)
			if _, ok := b.followers.Advise(); ok != tc.recorded {
				t.Errorf("followers carries a usage recorder = %v, want %v", ok, tc.recorded)
			}
		})
	}
}

// TestKindsAgreeOnOneOpSequence replays one seeded single-thread Table-2
// sequence on every kind: the kinds differ in declarations only, so the
// observable state must not differ at all — and neither may a single
// timeline read. (One thread is one partition, so the
// sequence is valid under DAP's contract too; MaxDegree stays below
// FanoutLimit, so no delivery is cut at a set-iteration-order-dependent
// point.)
func TestKindsAgreeOnOneOpSequence(t *testing.T) {
	p := testParams(96, 1)
	p.OpsPerThread = 4000
	all := make([]UserID, p.Users)
	for u := range all {
		all[u] = UserID(u)
	}
	type state struct {
		Users     int
		Followers []int
		InGroup   []bool
		Timelines [][]Tweet // every Timeline read of the sequence, in order
	}
	replay := func(kind Kind) state {
		reg := core.NewRegistry(8)
		h := reg.MustRegister()
		b, _ := Build(kind, p, reg)
		gen := NewGenerator(0, p, all, false)
		var st state
		tl := make([]Tweet, TimelineSize)
		for i := 0; i < p.OpsPerThread; i++ {
			op := gen.Next()
			if op.Kind == OpTimeline {
				n := b.Timeline(h, op.User, tl)
				st.Timelines = append(st.Timelines, append([]Tweet(nil), tl[:n]...))
				continue
			}
			apply(b, h, op, tl)
		}
		st.Users = b.Users()
		for u := 0; u < p.Users; u++ {
			st.Followers = append(st.Followers, b.Followers(UserID(u)))
			st.InGroup = append(st.InGroup, b.InGroup(UserID(u)))
		}
		return st
	}
	want := replay(KindJUC)
	if want.Users <= p.Users || len(want.Timelines) == 0 {
		t.Fatalf("degenerate replay: %d users, %d timeline reads", want.Users, len(want.Timelines))
	}
	for _, kind := range allKinds[1:] {
		got := replay(kind)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverges from JUC on the same op sequence (users %d vs %d)", kind, got.Users, want.Users)
		}
	}
}
