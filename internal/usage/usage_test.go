package usage

import (
	"sync"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

func mustHandle(t *testing.T, reg *core.Registry) *core.Handle {
	t.Helper()
	h, err := reg.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(h.Release)
	return h
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.RecordWrite(MethodPut, 3, 42)
	r.RecordRead(MethodGet, 3)
	r.Reset()
	if tr := r.Trace(); tr.Writes != 0 || tr.Reads != 0 || tr.Methods != nil {
		t.Fatalf("nil recorder trace not zero: %+v", tr)
	}
}

func TestSingleWriterEvidence(t *testing.T) {
	reg := core.NewRegistry(8)
	w := mustHandle(t, reg)
	rd := mustHandle(t, reg)
	r := NewRecorderKeys(reg, 64)

	for k := uint64(1); k <= 10; k++ {
		r.RecordWrite(MethodPut, SlotOf(w), k)
	}
	for range 5 {
		r.RecordRead(MethodGet, SlotOf(rd))
	}

	tr := r.Trace()
	if tr.Writers != 1 || tr.Readers != 1 {
		t.Fatalf("want 1 writer / 1 reader, got %d / %d", tr.Writers, tr.Readers)
	}
	if tr.Writes != 10 || tr.Reads != 5 {
		t.Fatalf("want 10 writes / 5 reads, got %d / %d", tr.Writes, tr.Reads)
	}
	if tr.Keys != 10 || tr.SharedKeys != 0 || tr.Overwrites != 0 {
		t.Fatalf("want 10 fresh single-writer keys, got %+v", tr)
	}
	if tr.Methods["Put"] != 10 || tr.Methods["Get"] != 5 {
		t.Fatalf("method counts wrong: %v", tr.Methods)
	}
}

func TestOverwriteAndSharedKeyEvidence(t *testing.T) {
	reg := core.NewRegistry(8)
	a := mustHandle(t, reg)
	b := mustHandle(t, reg)
	r := NewRecorderKeys(reg, 64)

	r.RecordWrite(MethodPut, SlotOf(a), 7) // fresh
	r.RecordWrite(MethodPut, SlotOf(a), 7) // overwrite, same writer
	r.RecordWrite(MethodPut, SlotOf(b), 7) // overwrite, second writer
	r.RecordWrite(MethodPut, SlotOf(b), 9) // fresh, b-owned

	tr := r.Trace()
	if tr.Keys != 2 {
		t.Fatalf("want 2 keys, got %d", tr.Keys)
	}
	if tr.Overwrites != 2 {
		t.Fatalf("want 2 overwrites, got %d", tr.Overwrites)
	}
	if tr.SharedKeys != 1 {
		t.Fatalf("want 1 shared key, got %d", tr.SharedKeys)
	}
	if tr.Writers != 2 {
		t.Fatalf("want 2 writers, got %d", tr.Writers)
	}
}

func TestAnonymousTrafficBlocksAttribution(t *testing.T) {
	reg := core.NewRegistry(8)
	r := NewRecorderKeys(reg, 64)

	r.RecordWrite(MethodPut, AnonSlot, 5)
	r.RecordRead(MethodGet, AnonSlot)

	tr := r.Trace()
	if tr.AnonWrites != 1 || tr.AnonReads != 1 {
		t.Fatalf("anonymous counts wrong: %+v", tr)
	}
	if tr.Writers != 0 || tr.Readers != 0 {
		t.Fatalf("anonymous ops must not create slot cardinality: %+v", tr)
	}
	// An anonymous write cannot be attributed, so the key counts as shared.
	if tr.SharedKeys != 1 {
		t.Fatalf("anonymous write should mark its key shared, got %+v", tr)
	}
}

func TestReadYourWrite(t *testing.T) {
	reg := core.NewRegistry(8)
	w := mustHandle(t, reg)
	r := NewRecorderKeys(reg, 64)

	r.RecordRead(MethodGet, SlotOf(w)) // before any write: not RYW
	r.RecordWrite(MethodSet, SlotOf(w), UnkeyedKey)
	r.RecordRead(MethodGet, SlotOf(w)) // after own write: RYW

	if tr := r.Trace(); tr.ReadYourWrites != 1 {
		t.Fatalf("want 1 read-your-write, got %d", tr.ReadYourWrites)
	}
}

func TestKeyTableSaturationIsFlagged(t *testing.T) {
	reg := core.NewRegistry(8)
	w := mustHandle(t, reg)
	r := NewRecorderKeys(reg, 4) // tiny table: 4 cells
	for k := uint64(1); k <= 100; k++ {
		r.RecordWrite(MethodPut, SlotOf(w), k)
	}
	tr := r.Trace()
	if !tr.KeysSaturated {
		t.Fatal("want saturation flag after overflowing a 4-cell table")
	}
	if tr.Writes != 100 {
		t.Fatalf("saturation must not lose op counts: got %d writes", tr.Writes)
	}
}

func TestReset(t *testing.T) {
	reg := core.NewRegistry(8)
	w := mustHandle(t, reg)
	r := NewRecorderKeys(reg, 64)
	r.RecordWrite(MethodPut, SlotOf(w), 3)
	r.RecordWrite(MethodPut, SlotOf(w), 3)
	r.RecordRead(MethodGet, SlotOf(w))
	r.Reset()
	tr := r.Trace()
	if tr.Writes != 0 || tr.Reads != 0 || tr.Keys != 0 || tr.Overwrites != 0 {
		t.Fatalf("reset left state behind: %+v", tr)
	}
}

// TestConcurrentRecordingDoesNotCorrupt is the race-job proof: many
// goroutines record disjoint keys concurrently and the trace must account
// for every operation with exact per-slot attribution.
func TestConcurrentRecordingDoesNotCorrupt(t *testing.T) {
	const (
		workers     = 8
		opsPerSlot  = 2000
		keysPerSlot = 100
	)
	reg := core.NewRegistry(workers)
	r := NewRecorderKeys(reg, 4*workers*keysPerSlot)

	// Every handle is registered before any worker starts: a worker that
	// finishes early releases its handle, and a Register after that would
	// reuse the slot and merge two workers into one.
	handles := make([]*core.Handle, workers)
	for w := range handles {
		h, err := reg.Register()
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		handles[w] = h
	}
	var wg sync.WaitGroup
	for w, h := range handles {
		wg.Add(1)
		go func(h *core.Handle, w int) {
			defer wg.Done()
			defer h.Release()
			slot := SlotOf(h)
			for i := range opsPerSlot {
				// Disjoint key space per worker: no key is ever shared.
				k := uint64(w*keysPerSlot + i%keysPerSlot + 1)
				r.RecordWrite(MethodPut, slot, k)
				r.RecordRead(MethodGet, slot)
			}
		}(h, w)
	}
	wg.Wait()

	tr := r.Trace()
	if tr.Writes != workers*opsPerSlot || tr.Reads != workers*opsPerSlot {
		t.Fatalf("lost ops: %d writes / %d reads, want %d each",
			tr.Writes, tr.Reads, workers*opsPerSlot)
	}
	if tr.Writers != workers || tr.Readers != workers {
		t.Fatalf("want %d writers/readers, got %d / %d", workers, tr.Writers, tr.Readers)
	}
	if tr.Keys != workers*keysPerSlot {
		t.Fatalf("want %d distinct keys, got %d", workers*keysPerSlot, tr.Keys)
	}
	if tr.SharedKeys != 0 {
		t.Fatalf("disjoint keyspaces must record zero shared keys, got %d", tr.SharedKeys)
	}
	if tr.KeysSaturated {
		t.Fatal("table sized 4x keys must not saturate")
	}
	wantOv := uint64(workers * (opsPerSlot - keysPerSlot))
	if tr.Overwrites != wantOv {
		t.Fatalf("want %d overwrites, got %d", wantOv, tr.Overwrites)
	}
}

// TestRecordIsAllocationFree pins the recorder overhead contract: a
// recorded operation allocates nothing, live or nil.
func TestRecordIsAllocationFree(t *testing.T) {
	reg := core.NewRegistry(8)
	h, err := reg.Register()
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	defer h.Release()
	r := NewRecorderKeys(reg, 1024)
	slot := SlotOf(h)

	var k uint64
	if n := testing.AllocsPerRun(1000, func() {
		k++
		r.RecordWrite(MethodPut, slot, k%512)
		r.RecordRead(MethodGet, slot)
	}); n != 0 {
		t.Fatalf("live recorder allocates %.1f per op pair, want 0", n)
	}

	var nilR *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilR.RecordWrite(MethodPut, slot, 1)
		nilR.RecordRead(MethodGet, slot)
	}); n != 0 {
		t.Fatalf("nil recorder allocates %.1f per op pair, want 0", n)
	}
}

// BenchmarkRecordWrite measures the live recording path; the companion
// BenchmarkNilRecorder shows the disabled path costs a nil check, matching
// the contention.Probe contract.
func BenchmarkRecordWrite(b *testing.B) {
	reg := core.NewRegistry(8)
	h, err := reg.Register()
	if err != nil {
		b.Fatalf("Register: %v", err)
	}
	defer h.Release()
	r := NewRecorderKeys(reg, 1024)
	slot := SlotOf(h)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r.RecordWrite(MethodPut, slot, uint64(i%512))
	}
}

func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r.RecordWrite(MethodPut, 0, uint64(i))
	}
}
