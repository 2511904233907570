// Socialfeed: a miniature of the paper's §6.3 social-network application
// built on the public API. Four shard goroutines own disjoint user ranges;
// fan-out posting crosses shards through multi-producer single-consumer
// timeline queues, while all per-user state lives in commuting-writes
// segmented maps. This is the exact object assignment of the DEGO version in
// the paper: mapTimelines CWMR + MPSC queues, mapProfiles CWMR, community
// CWMR.
package main

import (
	"fmt"
	"sync"

	dego "github.com/adjusted-objects/dego"
)

const (
	shards = 4
	users  = 1000
)

type userID int

func ownerShard(u userID) int { return int(u) % shards }

type post struct {
	Author userID
	Text   string
}

type network struct {
	followers *dego.AdjustedMap[userID, []userID] // immutable slices, replaced on change
	timelines *dego.AdjustedMap[userID, *dego.AdjustedQueue[post]]
	profiles  *dego.AdjustedMap[userID, string]
	community *dego.AdjustedSet[userID]
}

// hashUser keeps id order, as a Java map keyed by Integer does (the id
// itself, spread by ConcurrentHashMap's h ^ h>>>16): the segmented maps read
// only the hash's low bits, so dense ids fill neighbouring buckets and a
// shard's new users land near each other instead of in random cache lines.
func hashUser(u userID) uint64 {
	h := uint64(u)
	return h ^ h>>16
}

func main() {
	reg := dego.NewRegistry(shards + 1)
	// Per-user state is written by the owning shard only and writes of
	// distinct shards commute (distinct keys), so every map declares
	// CommutingWriters; the planner picks the extended segmentations.
	shared := []dego.Option{dego.CommutingWriters(), dego.On(reg),
		dego.Capacity(users), dego.WithHash(hashUser)}
	net := &network{
		followers: dego.Must(dego.Map[userID, []userID](shared...)),
		timelines: dego.Must(dego.Map[userID, *dego.AdjustedQueue[post]](shared...)),
		profiles:  dego.Must(dego.Map[userID, string](shared...)),
		community: dego.Must(dego.Set[userID](shared...)),
	}

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()

			// Each shard registers its own users: the keys bind to this
			// shard's segments, so every later write by this shard commutes
			// with the other shards' writes.
			for u := userID(s); u < users; u += shards {
				net.timelines.Put(h, u, dego.Must(dego.Queue[post](dego.SingleReader())))
				net.profiles.Put(h, u, fmt.Sprintf("user-%d", u))
				// u follows its three "neighbours".
				net.followers.Put(h, u, []userID{
					(u + 1) % users, (u + 7) % users, (u + 13) % users,
				})
				if u%10 == 0 {
					net.community.Add(h, u)
				}
			}
		}(s)
	}
	wg.Wait()

	// Posting: every shard posts on behalf of its users; deliveries cross
	// shards freely because timelines are multi-producer.
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for u := userID(s); u < users; u += shards {
				if flw, ok := net.followers.Get(u); ok {
					for _, f := range flw {
						if q, ok := net.timelines.Get(f); ok {
							q.Offer(h, post{Author: u, Text: "hello"})
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()

	// Reading: each user's owner shard is the single consumer of its
	// timeline queue.
	totals := make([]int, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for u := userID(s); u < users; u += shards {
				if q, ok := net.timelines.Get(u); ok {
					for {
						if _, ok := q.Poll(h); !ok {
							break
						}
						totals[s]++
					}
				}
			}
		}(s)
	}
	wg.Wait()

	delivered := 0
	for _, t := range totals {
		delivered += t
	}
	fmt.Printf("users: %d, community members: %d\n", net.profiles.Len(), net.community.Len())
	fmt.Printf("posts delivered: %d (expected %d = 3 follows x %d users)\n",
		delivered, 3*users, users)
	name, _ := net.profiles.Get(42)
	fmt.Printf("profile(42) = %q, in community: %v\n", name, net.community.Contains(40))
}
