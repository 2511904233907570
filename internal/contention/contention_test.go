package contention

import (
	"runtime"
	"sync"
	"testing"
)

func TestProbeCountsAndReset(t *testing.T) {
	p := new(Probe)
	p.RecordCASFailure()
	p.RecordCASFailure()
	p.RecordSpin()
	p.RecordLockWait()
	s := p.Snapshot()
	if s.CASFailures != 2 || s.SpinWaits != 1 || s.LockWaits != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Total() != 4 {
		t.Fatalf("Total = %d, want 4", s.Total())
	}
	p.Reset()
	if p.Snapshot().Total() != 0 {
		t.Fatal("Reset did not zero the probe")
	}
}

func TestNilProbeIsFreeAndSafe(t *testing.T) {
	var p *Probe
	p.RecordCASFailure()
	p.RecordSpin()
	p.RecordLockWait()
	p.Reset()
	if p.Snapshot().Total() != 0 {
		t.Fatal("nil probe must read zero")
	}
}

// TestProbeChildPropagation pins the per-range sampling split: a child's
// events count into both the child (the range's own sample stream) and the
// parent (the object-wide totals), parent-only events never leak into a
// child, and sibling children stay isolated from each other.
func TestProbeChildPropagation(t *testing.T) {
	parent := new(Probe)
	a, b := parent.Child(), parent.Child()
	a.RecordCASFailure()
	a.RecordSpin()
	b.RecordLockWait()
	parent.RecordLockWait() // parent-only event
	if got := a.Snapshot(); got.Total() != 2 || got.CASFailures != 1 || got.SpinWaits != 1 {
		t.Fatalf("child a snapshot = %+v", got)
	}
	if got := b.Snapshot(); got.Total() != 1 || got.LockWaits != 1 {
		t.Fatalf("child b snapshot = %+v", got)
	}
	if got := parent.Snapshot(); got.Total() != 4 || got.LockWaits != 2 {
		t.Fatalf("parent snapshot = %+v", got)
	}
	// Reset is local: zeroing the child leaves the aggregate intact.
	a.Reset()
	if a.Snapshot().Total() != 0 || parent.Snapshot().Total() != 4 {
		t.Fatalf("after child reset: child=%d parent=%d",
			a.Snapshot().Total(), parent.Snapshot().Total())
	}
	// Grandchildren propagate transitively.
	g := a.Child()
	g.RecordSpin()
	if a.Snapshot().SpinWaits != 1 || parent.Snapshot().SpinWaits != 2 {
		t.Fatalf("grandchild did not propagate: a=%+v parent=%+v",
			a.Snapshot(), parent.Snapshot())
	}
	// A child of a nil probe still counts locally.
	var nilProbe *Probe
	c := nilProbe.Child()
	c.RecordCASFailure()
	if c.Snapshot().CASFailures != 1 {
		t.Fatal("child of nil probe lost its event")
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{CASFailures: 10, SpinWaits: 5, LockWaits: 3}
	b := Snapshot{CASFailures: 4, SpinWaits: 1, LockWaits: 3}
	d := a.Sub(b)
	if d.CASFailures != 6 || d.SpinWaits != 4 || d.LockWaits != 0 || d.Total() != 10 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestProbeConcurrent(t *testing.T) {
	p := new(Probe)
	const goroutines, each = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				p.RecordCASFailure()
			}
		}()
	}
	wg.Wait()
	if got := p.Snapshot().CASFailures; got != goroutines*each {
		t.Fatalf("CASFailures = %d, want %d", got, goroutines*each)
	}
}

// TestMutexWaitSecondsMonotone reads a phase of forced lock contention and
// a collection through a Reader: every counter is present and none goes
// backwards. It asserts no duration, only signs and counts.
func TestMutexWaitSecondsMonotone(t *testing.T) {
	r := NewReader()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				mu.Lock()
				//nolint:staticcheck // intentional critical section
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// The runtime times every 8th wait of a goroutine to run: a goroutine
	// that blocks 64 times is timed at least 8 times.
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	for i := 0; i < 64; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	runtime.GC()
	d := r.End()
	if d.MutexSec < 0 || d.GCCPUSec < 0 {
		t.Fatalf("mutex wait %v s and collector CPU %v s over the phase, want neither negative", d.MutexSec, d.GCCPUSec)
	}
	if d.GCCycles == 0 {
		t.Error("a phase that ran runtime.GC read no completed cycle")
	}
	if d.SchedWaits == 0 || d.SchedP99Sec <= 0 {
		t.Errorf("a phase with 64 goroutine wake-ups read %d scheduling waits, p99 %v s", d.SchedWaits, d.SchedP99Sec)
	}
	// A second End measures from the same Begin: nothing counts down.
	if e := r.End(); e.MutexSec < d.MutexSec || e.GCCycles < d.GCCycles || e.SchedWaits < d.SchedWaits {
		t.Errorf("a later End read %+v, less than the earlier %+v", e, d)
	}
}
