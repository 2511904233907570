// Package contention is the software stand-in for the hardware event
// cycle_activity.stalls_total used in §6.2. perf counters are unavailable to
// a pure-Go, stdlib-only library, so the library objects are instrumented
// with a Probe counting the moments a thread made no progress because of
// another thread: failed CAS attempts, spin-wait iterations, and lock
// acquisitions that had to wait. The Pearson correlation between throughput
// and this proxy reproduces the paper's stall analysis.
package contention

import (
	"runtime/metrics"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// Probe accumulates contention events; the zero value is an empty probe.
// A nil *Probe is valid and free: every recorder is a no-op, so structures
// embed an optional probe without taxing the fast path when monitoring is
// off.
type Probe struct {
	casFailures atomic.Int64
	spinWaits   atomic.Int64
	lockWaits   atomic.Int64
	parent      *Probe
	_           core.Pad
}

// Child returns a probe whose events also count into p. It is the sampling
// split used by per-range adaptive objects (internal/adaptive): each key
// range records stalls into its own child — so the range's promotion
// decision sees only its own contention — while the parent keeps the
// object-wide totals the benchmarks and callers of Probe() read. Snapshot
// and Reset act on one probe's own counters only; propagation is
// record-time, so a child's events are never double-counted in its own
// snapshot. Children may nest. A child of a nil probe still counts locally.
func (p *Probe) Child() *Probe { return &Probe{parent: p} }

// RecordCASFailure counts one failed compare-and-swap (the retry loops of
// the JUC-style baselines).
func (p *Probe) RecordCASFailure() {
	if p != nil {
		p.casFailures.Add(1)
		p.parent.RecordCASFailure()
	}
}

// RecordSpin counts one spin-wait iteration.
func (p *Probe) RecordSpin() {
	if p != nil {
		p.spinWaits.Add(1)
		p.parent.RecordSpin()
	}
}

// RecordLockWait counts one contended lock acquisition.
func (p *Probe) RecordLockWait() {
	if p != nil {
		p.lockWaits.Add(1)
		p.parent.RecordLockWait()
	}
}

// Snapshot is a point-in-time reading of a probe.
type Snapshot struct {
	CASFailures int64
	SpinWaits   int64
	LockWaits   int64
}

// Total returns the aggregate stall count — the proxy for
// cycle_activity.stalls_total.
func (s Snapshot) Total() int64 { return s.CASFailures + s.SpinWaits + s.LockWaits }

// Sub returns the event-count delta s - t.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		CASFailures: s.CASFailures - t.CASFailures,
		SpinWaits:   s.SpinWaits - t.SpinWaits,
		LockWaits:   s.LockWaits - t.LockWaits,
	}
}

// Snapshot reads the probe. A nil probe reads as zero.
func (p *Probe) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return Snapshot{
		CASFailures: p.casFailures.Load(),
		SpinWaits:   p.spinWaits.Load(),
		LockWaits:   p.lockWaits.Load(),
	}
}

// Reset zeroes the probe.
func (p *Probe) Reset() {
	if p == nil {
		return
	}
	p.casFailures.Store(0)
	p.spinWaits.Store(0)
	p.lockWaits.Store(0)
}

// MutexWaitSeconds reads the cumulative time goroutines have spent blocked
// on sync primitives from runtime/metrics — the runtime-level component of
// the stall proxy (covers the mutex-based baselines the probe cannot see
// inside). Returns 0 when the metric is unsupported.
func MutexWaitSeconds() float64 {
	const name = "/sync/mutex/wait/total:seconds"
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}
