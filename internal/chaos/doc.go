// Package chaos holds the end-to-end resilience suite: dego-server behind
// an internal/faultnet injector, driven by self-healing retwis wire clients
// while an adaptive map beside the server is forced through promote/demote
// flapping. The suite asserts the serving-layer invariants documented in
// ARCHITECTURE.md's "Resilience" section — zero panics, zero leaked
// goroutines, bounded memory, and exact data convergence once the injected
// storm quiesces — and runs under the race detector in CI's chaos-smoke
// job, which uploads the CHAOS_JSON summary artifact the test emits.
//
// The package contains only tests; there is no library surface.
package chaos
