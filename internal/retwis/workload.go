package retwis

import (
	"math/rand"

	"github.com/adjusted-objects/dego/internal/stats"
)

// OpKind is one Table-2 operation. Follow stands for the paired
// follow-then-unfollow of §6.3 (the converse keeps the graph invariant and
// is not measured); the group branch is pre-split into join/leave so
// appliers need no randomness of their own.
type OpKind uint8

// Operation kinds of the Table 2 mix.
const (
	OpAddUser OpKind = iota + 1
	OpFollow
	OpPost
	OpTimeline
	OpJoinGroup
	OpLeaveGroup
	OpUpdateProfile
)

// String returns the operation label.
func (k OpKind) String() string {
	return [...]string{"", "AddUser", "Follow", "Post", "Timeline",
		"JoinGroup", "LeaveGroup", "UpdateProfile"}[k]
}

// Op is one generated operation, fully resolved: the acting user, the
// follow target and the payload sequence are all chosen by the Generator,
// so an applier — in-process Backend call or wire commands to a live
// server — only executes, never draws randomness. That keeps the op stream
// identical across backends and across the local/network split.
type Op struct {
	Kind   OpKind
	User   UserID // acting user (owned by the generating thread)
	Target UserID // OpFollow: the followee
	Seq    int64  // OpPost / OpUpdateProfile payload version
}

// Generator produces one worker thread's operation stream: Zipf-biased
// acting users from the thread's own partition, the cumulative Table-2 mix
// thresholds, and deterministic fresh user ids that stay on the owning
// ring position (id mod threads == tid). It is the oneOp logic of Run
// extracted so the network client can replay the exact same stream against
// a live server. TestGeneratorStreamPinned pins its streams: every seeded
// figure depends on the draw order and on the samplers' values.
type Generator struct {
	mine       []UserID
	rng        *rand.Rand
	actZipf    *stats.Zipfian
	globalZipf *stats.Zipfian
	threads    int64
	nextID     int64
	seq        int64
	confined   bool // DAP: follow targets stay inside the partition

	cAdd, cFollow, cPost, cTimeline, cGroup int
}

// NewGenerator builds the stream for worker tid. mine is the thread's user
// partition (ids u with u mod p.Threads == tid); confined keeps follow
// targets inside it (the DAP contract).
func NewGenerator(tid int, p Params, mine []UserID, confined bool) *Generator {
	m := p.Mix
	g := &Generator{
		mine:       mine,
		rng:        rand.New(rand.NewSource(p.Seed + int64(tid)*104729)),
		actZipf:    stats.NewZipfian(len(mine), p.Alpha, p.Seed+int64(tid)*31),
		globalZipf: stats.NewZipfian(p.Users, p.Alpha, p.Seed+int64(tid)*37),
		threads:    int64(p.Threads),
		nextID:     int64(p.Users + (((tid-p.Users)%p.Threads)+p.Threads)%p.Threads),
		confined:   confined,
		cAdd:       m.AddUser,
	}
	g.cFollow = g.cAdd + m.Follow
	g.cPost = g.cFollow + m.Post
	g.cTimeline = g.cPost + m.Timeline
	g.cGroup = g.cTimeline + m.Group
	return g
}

// Next draws the next operation.
func (g *Generator) Next() Op {
	u := g.mine[g.actZipf.Next()]
	r := g.rng.Intn(100)
	switch {
	case r < g.cAdd:
		id := UserID(g.nextID)
		g.nextID += g.threads
		return Op{Kind: OpAddUser, User: id}
	case r < g.cFollow:
		return Op{Kind: OpFollow, User: u, Target: g.pickTarget()}
	case r < g.cPost:
		g.seq++
		return Op{Kind: OpPost, User: u, Seq: g.seq}
	case r < g.cTimeline:
		return Op{Kind: OpTimeline, User: u}
	case r < g.cGroup:
		if g.rng.Intn(2) == 0 {
			return Op{Kind: OpJoinGroup, User: u}
		}
		return Op{Kind: OpLeaveGroup, User: u}
	default:
		return Op{Kind: OpUpdateProfile, User: u, Seq: g.seq}
	}
}

func (g *Generator) pickTarget() UserID {
	if g.confined {
		return g.mine[g.rng.Intn(len(g.mine))]
	}
	return UserID(g.globalZipf.Next())
}
