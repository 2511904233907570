package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the nearest-rank
// rule: the smallest sample with at least a share q of the samples at or
// below it. It is exact on raw samples — no bucketing — which is why the
// benchmark keeps nanosecond slices instead of a stats.LatencyHist, whose
// 1/16 buckets move a p50 in 6 % steps.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.99 × 100 = 99.00000000000001 at rank 99.
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortSamples(s []int64) []int64 {
	slices.Sort(s)
	return s
}

// median is the middle of vals (mean of the two middle values when even).
func median(vals []float64) float64 {
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB reads VmHWM, the process's peak resident set. The kernel reports
// KiB; MB here means MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memSnap is the slice of runtime.MemStats the proc.* metrics are deltas of.
type memSnap struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	heapLive       uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heapLive: ms.HeapAlloc,
	}
}

// phase measures one measured phase: wall clock, CPU and allocation deltas.
// begin is called after every barrier has been passed, end right after the
// last worker returns; ReadMemStats stops the world, so both reads sit
// outside the timed interval.
type phase struct {
	mem0, mem1 memSnap
	cpu0       time.Duration
	t0         time.Time
	elapsed    time.Duration
	cpu        time.Duration
}

func (p *phase) begin() {
	p.mem0 = readMem()
	p.cpu0 = cpuTime()
	p.t0 = time.Now()
}

func (p *phase) end() {
	p.elapsed = time.Since(p.t0)
	p.cpu = cpuTime() - p.cpu0
	p.mem1 = readMem()
}
