package loadgen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// scheduleBytes serializes a schedule so determinism can be asserted as
// byte identity, the contract that makes frontier JSONs reproducible.
func scheduleBytes(t *testing.T, sched []time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, sched); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestScheduleDeterministic(t *testing.T) {
	for _, proc := range []Process{Poisson, Uniform} {
		a := scheduleBytes(t, Schedule(proc, 5000, 2000, 42))
		b := scheduleBytes(t, Schedule(proc, 5000, 2000, 42))
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: same seed produced different schedules", proc)
		}
	}
	// Different seeds must actually change the Poisson draw.
	a := Schedule(Poisson, 5000, 2000, 42)
	b := Schedule(Poisson, 5000, 2000, 43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Poisson schedule ignored the seed")
	}
}

func TestScheduleShape(t *testing.T) {
	const rate, n = 10_000.0, 5000
	for _, proc := range []Process{Poisson, Uniform} {
		sched := Schedule(proc, rate, n, 7)
		if len(sched) != n {
			t.Fatalf("%v: %d offsets, want %d", proc, len(sched), n)
		}
		for i := 1; i < n; i++ {
			if sched[i] < sched[i-1] {
				t.Fatalf("%v: offsets not monotone at %d", proc, i)
			}
		}
		// The horizon should be about n/rate; Poisson within a loose band.
		want := float64(n) / rate * float64(time.Second)
		got := float64(sched[n-1])
		if got < want*0.7 || got > want*1.3 {
			t.Fatalf("%v: horizon %v, want about %v", proc, sched[n-1], time.Duration(want))
		}
	}
	// Uniform is exactly fixed-interval.
	sched := Schedule(Uniform, 1000, 10, 0)
	for i, off := range sched {
		if off != time.Duration(i)*time.Millisecond {
			t.Fatalf("Uniform offset %d = %v", i, off)
		}
	}
}

func TestParseProcess(t *testing.T) {
	for s, want := range map[string]Process{"": Poisson, "poisson": Poisson, "uniform": Uniform, "fixed": Uniform, "closed": Closed} {
		got, err := ParseProcess(s)
		if err != nil || got != want {
			t.Fatalf("ParseProcess(%q) = %v, %v", s, got, err)
		}
		if s != "" && s != "fixed" && got.String() != s {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseProcess("lognormal"); err == nil {
		t.Fatal("unknown process accepted")
	}
}

// sleeperExec sleeps a base service time per batch, plus one long stall on
// a chosen job index — the deterministic "server hiccup".
type sleeperExec struct {
	base     time.Duration
	stallAt  int
	stallFor time.Duration
	calls    atomic.Int64
}

func (e *sleeperExec) Exec(jobs []Job) error {
	e.calls.Add(1)
	d := e.base
	for _, j := range jobs {
		if j.Index == e.stallAt {
			d += e.stallFor
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (e *sleeperExec) Close() error { return nil }

// TestRunAbsorbsStallFromIntendedStart is the open-loop half of the
// coordinated-omission story at the unit level: a single 40ms stall on one
// job must surface as queueing delay on the *following* arrivals, because
// their latency is measured from intended start. Roughly rate×stall jobs
// queue behind the hiccup, so the upper quantiles carry it.
func TestRunAbsorbsStallFromIntendedStart(t *testing.T) {
	const (
		rate  = 2000.0
		count = 400
		stall = 40 * time.Millisecond
	)
	ex := &sleeperExec{stallAt: 100, stallFor: stall}
	res, err := Run(Config{
		Rate: rate, Count: count, Process: Uniform, Workers: 1, Batch: 8, QueueCap: count,
	}, func(int) (Executor, error) { return ex, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != count || res.Dropped != 0 || res.Errors != 0 {
		t.Fatalf("accounting: %+v", res)
	}
	// The stalled batch itself: at least one sample carries the full stall.
	if max := res.Latency.Max(); max < uint64(stall.Microseconds()) {
		t.Fatalf("max latency %dµs, want >= the %v stall", max, stall)
	}
	// ~80 of 400 jobs arrive during the stall (20%), so p90 must see
	// multi-millisecond queueing — a service-time harness would report
	// p90 ≈ 0 here.
	if p90 := res.Latency.Percentile(0.90); p90 < 5_000 {
		t.Fatalf("p90 = %dµs: queueing delay was coordinated away", p90)
	}
}

// TestRunOverflowAccounting: a worker far slower than the arrival rate must
// shed load at the bounded backlog, with every arrival accounted for and
// the clock never blocked by the stuck pool.
func TestRunOverflowAccounting(t *testing.T) {
	const count = 300
	ex := &sleeperExec{base: 2 * time.Millisecond, stallAt: -1}
	start := time.Now()
	res, err := Run(Config{
		Rate: 10_000, Count: count, Process: Uniform, Workers: 1, Batch: 1, QueueCap: 4,
	}, func(int) (Executor, error) { return ex, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != count {
		t.Fatalf("scheduled %d, want %d", res.Scheduled, count)
	}
	if res.Dropped == 0 {
		t.Fatal("overloaded run dropped nothing; the backlog must be bounded")
	}
	if res.Executed+res.Errors+res.Dropped != res.Scheduled {
		t.Fatalf("accounting leak: %+v", res)
	}
	// The 30ms schedule must complete even though executing all 300 jobs
	// at 2ms each would take 600ms: drops keep the clock honest. Allow
	// generous slack for the backlog drain and CI jitter.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("run took %v; the dispatcher blocked on the full backlog", elapsed)
	}
}

type failingExec struct{ after int }

func (e *failingExec) Exec(jobs []Job) error {
	if jobs[0].Index >= e.after {
		return errors.New("boom")
	}
	return nil
}

func (e *failingExec) Close() error { return nil }

func TestRunErrorAccounting(t *testing.T) {
	res, err := Run(Config{
		Rate: 50_000, Count: 100, Process: Uniform, Workers: 1, Batch: 1, QueueCap: 100,
	}, func(int) (Executor, error) { return &failingExec{after: 50}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("failing executor reported no errors")
	}
	if res.Executed+res.Errors+res.Dropped != res.Scheduled {
		t.Fatalf("accounting leak: %+v", res)
	}
	if res.Latency.Count() != res.Executed {
		t.Fatalf("latency has %d samples, want executed count %d", res.Latency.Count(), res.Executed)
	}
}

// closedExec checks the closed process's contract from inside the
// executor: one worker never has two Execs in flight, and no batch is
// larger than the configured Batch. It counts how often each job index
// reaches an Exec into seen, and fails every batch from failFrom on.
type closedExec struct {
	t        *testing.T
	batch    int
	failFrom int
	seen     []atomic.Int32
	inFlight atomic.Bool
}

func (e *closedExec) Exec(jobs []Job) error {
	if !e.inFlight.CompareAndSwap(false, true) {
		e.t.Error("a second Exec began before the previous one returned")
	}
	defer e.inFlight.Store(false)
	if len(jobs) == 0 || len(jobs) > e.batch {
		e.t.Errorf("Exec got %d jobs, want 1..%d", len(jobs), e.batch)
	}
	for _, j := range jobs {
		e.seen[j.Index].Add(1)
	}
	time.Sleep(20 * time.Microsecond)
	if jobs[0].Index >= e.failFrom {
		return errors.New("boom")
	}
	return nil
}

func (e *closedExec) Close() error { return nil }

// TestRunClosed: the closed process runs exactly Count jobs — the last
// batch partial when Count is not a multiple of Batch — with no clock, so
// nothing is dropped and the lag histogram stays empty; a failing Exec is
// counted once per job, as on the open path.
func TestRunClosed(t *testing.T) {
	const count, batch = 203, 8
	for _, failFrom := range []int{count, 100} {
		seen := make([]atomic.Int32, count)
		res, err := Run(Config{Process: Closed, Count: count, Workers: 3, Batch: batch},
			func(int) (Executor, error) {
				return &closedExec{t: t, batch: batch, failFrom: failFrom, seen: seen}, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if res.Scheduled != count || res.Dropped != 0 || res.Lag.Count() != 0 {
			t.Fatalf("failFrom %d: %+v", failFrom, res)
		}
		if res.Executed+res.Errors+res.Dropped != res.Scheduled {
			t.Fatalf("failFrom %d: accounting leak: %+v", failFrom, res)
		}
		if failFrom == count && (res.Executed != count || res.Errors != 0) {
			t.Fatalf("executed %d of %d, %d errors", res.Executed, count, res.Errors)
		}
		if failFrom < count && res.Errors == 0 {
			t.Fatal("failing executor reported no errors")
		}
		if res.Latency.Count() != res.Executed {
			t.Fatalf("latency has %d samples, want executed count %d", res.Latency.Count(), res.Executed)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("job %d executed %d times", i, n)
			}
		}
	}
	if _, err := Run(Config{Process: Closed, Rate: 100, Duration: time.Second}, nil); err == nil {
		t.Fatal("closed run without a Count accepted")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Rate: 0, Count: 10}, nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Config{Rate: 100}, nil); err == nil {
		t.Fatal("no count and no duration accepted")
	}
	if _, err := Run(Config{Rate: 100, Count: 1}, func(int) (Executor, error) {
		return nil, errors.New("dial failed")
	}); err == nil {
		t.Fatal("worker construction failure not surfaced")
	}
}
