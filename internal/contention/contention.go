// Package contention is the software stand-in for the hardware event
// cycle_activity.stalls_total used in §6.2. perf counters are unavailable to
// a pure-Go, stdlib-only library, so the library objects are instrumented
// with a Probe counting the moments a thread made no progress because of
// another thread: failed CAS attempts, spin-wait iterations, and lock
// acquisitions that had to wait. The Pearson correlation between throughput
// and this proxy reproduces the paper's stall analysis.
package contention

import (
	"math"
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

// Runtime is what the runtime itself counted over a phase (Reader's Begin
// to End), read from runtime/metrics: the components of the stall proxy
// that no probe sees, lock waiting inside the mutex-based baselines and the
// scheduler, beside what the collector cost.
type Runtime struct {
	// MutexSec is the time goroutines spent blocked on sync primitives
	// (/sync/mutex/wait/total).
	MutexSec float64
	// GCCycles counts the collections that completed (/gc/cycles/total).
	GCCycles uint64
	// GCCPUSec is the collector's CPU time (/cpu/classes/gc/total), an
	// estimate the runtime refreshes only when a cycle ends: a phase with
	// no cycle in it reads 0, and a phase may be charged for a cycle that
	// began before it.
	GCCPUSec float64
	// ScanHeapBytes is how much the scannable heap grew (/gc/scan/heap, a
	// level set by the last cycle, so negative when it shrank).
	ScanHeapBytes int64
	// SchedWaits counts the times a goroutine waited to run
	// (/sched/latencies), and SchedP99Sec bounds the 99th percentile of
	// those waits: the upper edge of its histogram bucket.
	SchedWaits  uint64
	SchedP99Sec float64
}

// The metrics a Reader reads, in its samples' order.
const (
	mutexWait = iota
	gcCycles
	gcCPU
	scanHeap
	schedLatencies
	numMetrics
)

var metricNames = [numMetrics]string{
	mutexWait:      "/sync/mutex/wait/total:seconds",
	gcCycles:       "/gc/cycles/total:gc-cycles",
	gcCPU:          "/cpu/classes/gc/total:cpu-seconds",
	scanHeap:       "/gc/scan/heap:bytes",
	schedLatencies: "/sched/latencies:seconds",
}

// Reader reads Runtime's metrics into samples it keeps, so that once
// NewReader has made them a Begin or an End allocates nothing (the runtime
// reuses a sample's histogram). A metric this Go does not support reads
// as 0. One goroutine uses a Reader at a time.
type Reader struct {
	samples [numMetrics]metrics.Sample
	begin   Runtime
	sched   []uint64 // the scheduling-latency counts at Begin
}

// NewReader returns a Reader with its samples made and Begin called.
func NewReader() *Reader {
	r := new(Reader)
	for i := range r.samples {
		r.samples[i].Name = metricNames[i]
	}
	r.Begin()
	return r
}

// Begin starts a phase: End reports what the runtime counted after it.
func (r *Reader) Begin() {
	metrics.Read(r.samples[:])
	r.begin = Runtime{
		MutexSec:      r.float(mutexWait),
		GCCycles:      r.uint(gcCycles),
		GCCPUSec:      r.float(gcCPU),
		ScanHeapBytes: int64(r.uint(scanHeap)),
	}
	if h := r.hist(); h != nil {
		r.sched = append(r.sched[:0], h.Counts...)
	}
}

// End returns what the runtime counted since Begin.
func (r *Reader) End() Runtime {
	metrics.Read(r.samples[:])
	d := Runtime{
		MutexSec:      r.float(mutexWait) - r.begin.MutexSec,
		GCCycles:      r.uint(gcCycles) - r.begin.GCCycles,
		GCCPUSec:      r.float(gcCPU) - r.begin.GCCPUSec,
		ScanHeapBytes: int64(r.uint(scanHeap)) - r.begin.ScanHeapBytes,
	}
	h := r.hist()
	if h == nil || len(h.Counts) != len(r.sched) {
		return d
	}
	for i, c := range h.Counts {
		d.SchedWaits += c - r.sched[i]
	}
	// The bucket holding the 99th percentile of the phase's waits; a wait
	// in the last, unbounded bucket is bounded by that bucket's lower edge.
	rank := d.SchedWaits - d.SchedWaits/100
	var seen uint64
	for i, c := range h.Counts {
		if seen += c - r.sched[i]; seen >= rank && seen > 0 {
			d.SchedP99Sec = h.Buckets[i+1]
			if math.IsInf(d.SchedP99Sec, 1) {
				d.SchedP99Sec = h.Buckets[i]
			}
			break
		}
	}
	return d
}

func (r *Reader) float(i int) float64 {
	if v := r.samples[i].Value; v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func (r *Reader) uint(i int) uint64 {
	if v := r.samples[i].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func (r *Reader) hist() *metrics.Float64Histogram {
	if v := r.samples[schedLatencies].Value; v.Kind() == metrics.KindFloat64Histogram {
		return v.Float64Histogram()
	}
	return nil
}
