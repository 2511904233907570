package retwis

import (
	"fmt"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/set"
)

// One Retwis program, many declarations. The §6.3 application is written
// once, in tableBackend, against the public profile API: every top-level
// shared table is a *dego.AdjustedMap / *dego.AdjustedSet, and a backend
// kind is nothing but the row of declarations those tables are planned
// with (rowOf). The planner turns each row into a representation — lock
// striping for JUC, the extended segmentation for DEGO, preallocated slot
// arrays for FLAT, the adaptive map for ADAPTIVE — and the program never
// learns which: DEGO is injected into an unchanged program, which is the
// paper's claim. Every kind pays the identical facade, so a DEGO-vs-JUC
// ratio compares representations, not call paths. That holds per user too:
// each user's timeline is the *dego.AdjustedQueue its row declared, held as
// declared (a queue's facade and representation are one allocation).
//
// The per-user inner sets (set.Locked) stay deliberately unadjusted and
// un-planned (§6.3: adjusting them costs more in write amplification than
// it saves); they are values inside the planned maps, not shared catalog
// objects. Each is one lock over a slice of at most 8 followers, which is
// where most users stay, and over a map only past that.

// kindRecorded is the advisor's row (AdviseRun): the JUC declarations — no
// restriction — with a usage recorder on every table, so the advisor can
// rediscover the DEGO row from traffic.
const kindRecorded Kind = KindFLAT + 1

// userHash hashes the named integer key type: the built-in default hashers
// cover only the unnamed key types, so every node-based row declares it.
// It keeps id order, as the paper's Java maps do (an Integer hashes to
// itself, and ConcurrentHashMap spreads it by h ^ h>>>16): the spread is a
// bijection whose low 16 bits are the id's low bits folded with bits 16–31,
// so ids below 2^16 hash to themselves and dense ids fill dense buckets.
// Only the low bits are read by any row. The DEGO directory takes hash &
// mask over Buckets(2 * users) (2^18 buckets at 100 000 users), so a
// thread's fresh ids (stride Threads) fill neighbouring buckets whose heads
// share cache lines, and the dense ids [0, n) leave no chain longer than
// ⌈n/2^18⌉. The JUC and recorded rows' stripes take hash & 255, so a thread
// that owns the ids of one residue locks its own stripes; their Go maps
// rehash the key with the runtime's seeded hash. ADAPTIVE reads the stripes'
// bits quiescent and the directory's promoted; its hash >> shift range pick
// runs only under Ranges(n > 1), which no row declares. FLAT declares no
// hash: the flat tables hash the integer key themselves. A hash that mixed
// every bit (splitmix64) would put each of a new user's four inserts in a
// random line of a 2 MB bucket array.
func userHash(u UserID) uint64 {
	h := uint64(u)
	return h ^ h>>16
}

// profile is one user's profile snapshot, held by value and replaced
// wholesale on update.
type profile struct {
	Version int64
}

// row is one kind's declarations: the options its top-level tables are
// planned with (Capacity is added per table), the options only its per-user
// maps add (Adaptive, which no set takes), and the planner call for one
// user's timeline queue.
type row struct {
	tables   []dego.Option
	maps     []dego.Option
	timeline func(u UserID) *dego.AdjustedQueue[Tweet]
}

// rowOf is the declaration table. Per-user writes commute (distinct threads
// own distinct users) and a timeline's only consumer is its user's owner
// thread; the DEGO, FLAT and ADAPTIVE rows say so, the JUC row says
// nothing. CommutingWriters plus Capacity over an integer key with no
// WithHash is the planner's flat gate. ADAPTIVE is DEGO's row with its four
// per-user maps declared Adaptive; its community set plans as DEGO's does.
func rowOf(kind Kind, users int, reg *core.Registry) row {
	queue := func(opts ...dego.Option) func(UserID) *dego.AdjustedQueue[Tweet] {
		return func(UserID) *dego.AdjustedQueue[Tweet] { return dego.Must(dego.Queue[Tweet](opts...)) }
	}
	switch kind {
	case KindJUC:
		return row{[]dego.Option{dego.Stripes(256), dego.WithHash(userHash)}, nil, queue()}
	case KindDEGO:
		return row{[]dego.Option{dego.CommutingWriters(), dego.On(reg), dego.Buckets(2 * users),
			dego.WithHash(userHash)}, nil, queue(dego.SingleReader())}
	case KindFLAT:
		return row{[]dego.Option{dego.CommutingWriters(), dego.On(reg)}, nil, queue(dego.SingleReader())}
	case KindADAPTIVE:
		return row{[]dego.Option{dego.CommutingWriters(), dego.On(reg), dego.Stripes(256),
			dego.Buckets(2 * users), dego.WithHash(userHash)}, []dego.Option{dego.Adaptive()}, queue(dego.SingleReader())}
	case kindRecorded:
		// User 0's queue is the one timeline built with recording — the
		// representative for the queue-consumer inference (recording every
		// user's queue would cost a recorder per user for identical
		// evidence).
		plain, recorded := queue(dego.On(reg)), queue(dego.On(reg), dego.WithUsageRecording())
		return row{[]dego.Option{dego.On(reg), dego.WithHash(userHash), dego.WithUsageRecording()}, nil,
			func(u UserID) *dego.AdjustedQueue[Tweet] {
				if u == 0 {
					return recorded(u)
				}
				return plain(u)
			}}
	}
	panic(fmt.Sprintf("retwis: unknown backend kind %d", int(kind)))
}

// sized is the row's table declarations plus one table's Capacity.
func (r row) sized(capacity int) []dego.Option {
	return append([]dego.Option{dego.Capacity(capacity)}, r.tables...)
}

// table plans one top-level per-user map from a row.
func table[V any](r row, capacity int) *dego.AdjustedMap[UserID, V] {
	return dego.Must(dego.Map[UserID, V](append(r.sized(capacity), r.maps...)...))
}

// tableBackend is the push-model Retwis program over one row of
// declarations.
type tableBackend struct {
	name      string
	row       row
	followers *dego.AdjustedMap[UserID, *set.Locked[UserID]]
	following *dego.AdjustedMap[UserID, *set.Locked[UserID]]
	timelines *dego.AdjustedMap[UserID, *dego.AdjustedQueue[Tweet]]
	profiles  *dego.AdjustedMap[UserID, profile]
	community *dego.AdjustedSet[UserID]
}

func newTableBackend(kind Kind, users int, reg *core.Registry) *tableBackend {
	r := rowOf(kind, users, reg)
	return &tableBackend{
		name:      kind.String(),
		row:       r,
		followers: table[*set.Locked[UserID]](r, users),
		following: table[*set.Locked[UserID]](r, users),
		timelines: table[*dego.AdjustedQueue[Tweet]](r, users),
		profiles:  table[profile](r, users),
		community: dego.Must(dego.Set[UserID](r.sized(users/8 + 16)...)),
	}
}

func (b *tableBackend) Name() string { return b.name }

func (b *tableBackend) AddUser(h *core.Handle, u UserID) {
	b.followers.Put(h, u, set.NewLocked[UserID]())
	b.following.Put(h, u, set.NewLocked[UserID]())
	b.timelines.Put(h, u, b.row.timeline(u))
	b.profiles.Put(h, u, profile{})
}

func (b *tableBackend) Follow(_ *core.Handle, follower, followee UserID) {
	// Map reads only: the inner sets absorb the writes.
	if s, ok := b.following.Get(follower); ok {
		s.Add(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Add(follower)
	}
}

func (b *tableBackend) Unfollow(_ *core.Handle, follower, followee UserID) {
	if s, ok := b.following.Get(follower); ok {
		s.Remove(followee)
	}
	if s, ok := b.followers.Get(followee); ok {
		s.Remove(follower)
	}
}

func (b *tableBackend) Post(h *core.Handle, author UserID, t Tweet) {
	fset, ok := b.followers.Get(author)
	if !ok {
		return
	}
	n := 0
	fset.Range(func(f UserID) bool {
		if q, ok := b.timelines.Get(f); ok {
			// Any thread may produce into a timeline.
			q.Offer(h, t)
		}
		n++
		return n < FanoutLimit
	})
}

// Timeline fetches every queued message and keeps the most recent len(out)
// of them (the paper reads the full queue and returns the last 50). The
// owner thread is the queue's unique consumer.
func (b *tableBackend) Timeline(h *core.Handle, u UserID, out []Tweet) int {
	q, ok := b.timelines.Get(u)
	if !ok {
		return 0
	}
	n := 0
	for {
		t, ok := q.Poll(h)
		if !ok {
			break
		}
		if n < len(out) {
			out[n] = t
			n++
		} else {
			copy(out, out[1:])
			out[len(out)-1] = t
		}
	}
	return n
}

func (b *tableBackend) JoinGroup(h *core.Handle, u UserID)  { b.community.Add(h, u) }
func (b *tableBackend) LeaveGroup(h *core.Handle, u UserID) { b.community.Remove(h, u) }

func (b *tableBackend) UpdateProfile(h *core.Handle, u UserID, version int64) {
	b.profiles.Put(h, u, profile{Version: version})
}

func (b *tableBackend) InGroup(u UserID) bool { return b.community.Contains(u) }

func (b *tableBackend) Followers(u UserID) int {
	if s, ok := b.followers.Get(u); ok {
		return s.Len()
	}
	return 0
}

func (b *tableBackend) Users() int { return b.profiles.Len() }

// ---------------------------------------------------------------------------
// DAP backend

// dapPart is one thread's private, unsynchronized state.
type dapPart struct {
	_         core.Pad
	followers map[UserID]map[UserID]bool
	following map[UserID]map[UserID]bool
	timelines map[UserID][]Tweet
	profiles  map[UserID]int64
	community map[UserID]bool
	_         core.Pad
}

type dapBackend struct {
	parts []dapPart
}

// newDAP builds the disjoint-access-parallel upper bound: threads touch only
// their own partition, so nothing synchronizes. The workload generator must
// keep every operation within the acting thread's partition.
func newDAP(threads int) *dapBackend {
	b := &dapBackend{parts: make([]dapPart, threads)}
	for i := range b.parts {
		b.parts[i] = dapPart{
			followers: map[UserID]map[UserID]bool{},
			following: map[UserID]map[UserID]bool{},
			timelines: map[UserID][]Tweet{},
			profiles:  map[UserID]int64{},
			community: map[UserID]bool{},
		}
	}
	return b
}

func (b *dapBackend) Name() string { return "DAP" }

func (b *dapBackend) part(h *core.Handle) *dapPart {
	return &b.parts[h.ID()%len(b.parts)]
}

func (b *dapBackend) AddUser(h *core.Handle, u UserID) {
	p := b.part(h)
	p.followers[u] = map[UserID]bool{}
	p.following[u] = map[UserID]bool{}
	p.timelines[u] = nil
	p.profiles[u] = 0
}

func (b *dapBackend) Follow(h *core.Handle, follower, followee UserID) {
	p := b.part(h)
	if s := p.following[follower]; s != nil {
		s[followee] = true
	}
	if s := p.followers[followee]; s != nil {
		s[follower] = true
	}
}

func (b *dapBackend) Unfollow(h *core.Handle, follower, followee UserID) {
	p := b.part(h)
	if s := p.following[follower]; s != nil {
		delete(s, followee)
	}
	if s := p.followers[followee]; s != nil {
		delete(s, follower)
	}
}

func (b *dapBackend) Post(h *core.Handle, author UserID, t Tweet) {
	p := b.part(h)
	n := 0
	for f := range p.followers[author] {
		p.timelines[f] = append(p.timelines[f], t)
		n++
		if n >= FanoutLimit {
			break
		}
	}
}

func (b *dapBackend) Timeline(h *core.Handle, u UserID, out []Tweet) int {
	p := b.part(h)
	tl := p.timelines[u]
	n := len(tl)
	if n > len(out) {
		tl = tl[n-len(out):]
		n = len(out)
	}
	copy(out, tl)
	p.timelines[u] = p.timelines[u][:0]
	return n
}

func (b *dapBackend) JoinGroup(h *core.Handle, u UserID)  { b.part(h).community[u] = true }
func (b *dapBackend) LeaveGroup(h *core.Handle, u UserID) { delete(b.part(h).community, u) }

func (b *dapBackend) UpdateProfile(h *core.Handle, u UserID, version int64) {
	b.part(h).profiles[u] = version
}

func (b *dapBackend) InGroup(u UserID) bool {
	for i := range b.parts {
		if b.parts[i].community[u] {
			return true
		}
	}
	return false
}

func (b *dapBackend) Followers(u UserID) int {
	for i := range b.parts {
		if s, ok := b.parts[i].followers[u]; ok {
			return len(s)
		}
	}
	return 0
}

func (b *dapBackend) Users() int {
	n := 0
	for i := range b.parts {
		n += len(b.parts[i].profiles)
	}
	return n
}
