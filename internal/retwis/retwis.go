// Package retwis implements the social-network application of §6.3: a
// multithreaded Retwis-like benchmark (a simplified Twitter clone). Users
// write messages, follow/unfollow each other, read their timelines, join and
// leave an interest group, and update their profiles.
//
// The application maintains five shared structures — mapFollowers,
// mapFollowing, mapTimelines, mapProfiles and community. The program over
// them is written once (tableBackend, backends.go) against the public
// profile API; a backend kind is a row of declarations for those tables,
// and the planner picks what each row runs on:
//
//   - JUC: nothing declared — lock-striped maps and set, Michael–Scott
//     timeline queues.
//   - DEGO: per-user writes declared commuting, timelines declared
//     single-consumer — (M2, CWMR) segmented maps, a CWMR set, MPSC queues.
//     The follower/following sets inside the maps stay one-lock sets
//     (set.Locked, a slice until they outgrow 8 elements): the paper
//     reports that adjusting them too costs more in write amplification
//     than it saves in contention.
//   - FLAT: DEGO's declarations plus a capacity and no hash function — the
//     planner's flat gate, preallocated open-addressing tables.
//   - ADAPTIVE: DEGO's declarations plus Adaptive — every table a
//     contention-adaptive object, lock-striped until contention promotes it
//     to the extended segmentation; MPSC timeline queues. This is the end-to-
//     end exercise of the internal/adaptive engine on a realistic mixed
//     workload, not a paper figure.
//   - RECORDED (unexported): JUC's declarations with a usage recorder on
//     every table — what AdviseRun replays to rediscover the DEGO row.
//   - DAP: disjoint-access parallel — each thread works on private
//     unsynchronized structures; the upper bound on parallel performance,
//     and the one backend that is not the table program.
//
// Every table program holds what it declared: each user's timeline is the
// *dego.AdjustedQueue its row planned, called through the same facade for
// every kind.
//
// Each thread owns a partition of the users (consistent hashing degenerated
// to the modulo ring, as ids are dense); an operation always executes on the
// thread owning its acting user.
package retwis

import (
	"fmt"

	"github.com/adjusted-objects/dego/internal/core"
)

// UserID identifies a user. Owner thread = id mod threads.
type UserID int64

// Tweet is one timeline entry.
type Tweet struct {
	Author UserID
	Seq    int64
}

// TimelineSize is how many messages a timeline read returns (the paper's
// "last 50 messages").
const TimelineSize = 50

// FanoutLimit bounds the synchronous delivery of a post to "the first
// followers" (§6.3); delivery to the rest would be asynchronous and is not
// implemented, exactly as in the paper.
const FanoutLimit = 64

// Mix is the operation mix of Table 2, in percent.
type Mix struct {
	AddUser  int // add a user
	Follow   int // follow/unfollow a user
	Post     int // post a tweet
	Timeline int // display the timeline
	Group    int // join/leave the interest group
	Profile  int // update the profile
}

// DefaultMix is Table 2: 5/5/15/60/5/10.
func DefaultMix() Mix {
	return Mix{AddUser: 5, Follow: 5, Post: 15, Timeline: 60, Group: 5, Profile: 10}
}

// Total returns the sum of the mix percentages.
func (m Mix) Total() int {
	return m.AddUser + m.Follow + m.Post + m.Timeline + m.Group + m.Profile
}

// Validate checks the mix sums to 100.
func (m Mix) Validate() error {
	if m.Total() != 100 {
		return fmt.Errorf("retwis: operation mix sums to %d%%, want 100%%", m.Total())
	}
	return nil
}

// Backend is one implementation of the application's shared state. Methods
// take the acting thread's handle; the contract (who may call what on which
// user) depends on the backend's adjustment and is documented per backend.
type Backend interface {
	Name() string

	// AddUser registers a user owned by the calling thread.
	AddUser(h *core.Handle, u UserID)
	// Follow makes follower follow followee; Unfollow reverts it. The
	// calling thread owns follower.
	Follow(h *core.Handle, follower, followee UserID)
	Unfollow(h *core.Handle, follower, followee UserID)
	// Post delivers a tweet to the first FanoutLimit followers of the
	// author. The calling thread owns the author.
	Post(h *core.Handle, author UserID, t Tweet)
	// Timeline fetches the author's pending messages and returns the last
	// TimelineSize of them. The calling thread owns the user.
	Timeline(h *core.Handle, u UserID, out []Tweet) int
	// JoinGroup/LeaveGroup update the interest group for a user owned by
	// the calling thread.
	JoinGroup(h *core.Handle, u UserID)
	LeaveGroup(h *core.Handle, u UserID)
	// UpdateProfile replaces the profile of a user owned by the calling
	// thread.
	UpdateProfile(h *core.Handle, u UserID, version int64)
	// InGroup reports whether u joined the interest group.
	InGroup(u UserID) bool
	// Followers returns the current number of followers of u.
	Followers(u UserID) int
	// Users returns the number of registered users.
	Users() int
}
