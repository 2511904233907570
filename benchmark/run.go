package main

import (
	"fmt"
	"runtime"

	"github.com/adjusted-objects/dego/internal/retwis"
)

// sizes fixes how much work every part of a run does. A full run derives
// them from -seconds; the tests use tiny ones.
type sizes struct {
	trials int // measured trials per run; one shorter warm-up trial precedes them

	libUsers int
	libOps   int // lib_table2 ops per thread per trial

	netUsers     int
	p16Ops       int     // net_table2_p16 ops per connection per trial
	readWarmOps  int     // net_read_p1 Table-2 warm-up ops per connection
	readOps      int     // net_read_p1 timeline reads per connection per trial
	openArrivals int     // net_table2_open arrivals per trial
	openRate     float64 // and its offered load in ops/s

	// Per-layer run.
	kindOps       int // ops per thread of each retwis.<kind>_ops_per_s trial
	tracedLibOps  int // ops per thread of the traced lib run
	replayFlushes int // flushes the layer replay re-enacts
	exec1Ops      int // Store.Exec round trips behind store.exec1_ns
	repKeys       int // keys of the rep.* and wrapper.* maps
	repSmallKeys  int // keys of rep.adaptive_get_small_ns
}

// Work per measured second, fixed on the 2-core reference box so that one
// run's measured phases add up to about -seconds there. They are op counts,
// not rates the run tries to hold: a slower machine just takes longer.
const (
	libOpsPerSec  = 1_450_000 // per thread
	p16OpsPerSec  = 46_000    // per connection
	readOpsPerSec = 21_000    // per connection
)

func fullSizes(seconds float64) sizes {
	const trials = 9
	per := seconds / trials // measured seconds per trial
	round := func(x float64, to int) int { return max(int(x)/to*to, to) }
	return sizes{
		trials:       trials,
		libUsers:     100_000,
		libOps:       round(libOpsPerSec*per, libBlock),
		netUsers:     20_000,
		p16Ops:       round(p16OpsPerSec*per, warmDepth),
		readWarmOps:  16_000,
		readOps:      round(readOpsPerSec*per, 1),
		openArrivals: round(openRate*per, 1),
		openRate:     openRate,

		kindOps:       round(libOpsPerSec*per/2, libBlock),
		tracedLibOps:  round(libOpsPerSec*per/4, libBlock),
		replayFlushes: 20_000,
		exec1Ops:      100_000,
		repKeys:       1 << 20,
		repSmallKeys:  1 << 14,
	}
}

// warmup shrinks the measured work to a quarter for the discarded first
// trial: it is there to fault in code and grow the heap, not to be measured.
func (sz sizes) warmup() sizes {
	sz.libOps = max(sz.libOps/4, libBlock) // trials round down to whole blocks and flushes
	sz.p16Ops = max(sz.p16Ops/4, warmDepth)
	sz.readOps = max(sz.readOps/4, 1)
	sz.openArrivals = max(sz.openArrivals/4, 1)
	return sz
}

func (sz sizes) p16() netShape {
	return netShape{users: sz.netUsers, depth: warmDepth, warmOps: 2 * warmDepth, ops: sz.p16Ops}
}

func (sz sizes) readP1() netShape {
	return netShape{users: sz.netUsers, depth: 1, warmOps: sz.readWarmOps, ops: sz.readOps, readOnly: true}
}

func libTable2Trial(seed int64, sz sizes, pr probe) (trial, error) {
	return libTrial(retwis.KindDEGO, seed, sz.libUsers, sz.libOps, pr)
}

func p16Trial(seed int64, sz sizes, pr probe) (trial, error) {
	return closedTrial(seed, sz.p16(), pr)
}

func readP1Trial(seed int64, sz sizes, pr probe) (trial, error) {
	return closedTrial(seed, sz.readP1(), pr)
}

func openLoopTrial(seed int64, sz sizes, pr probe) (trial, error) {
	return openTrial(seed, sz.netUsers, sz.openArrivals, sz.openRate, pr)
}

// End-to-end metric names and units, in BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"p50_us", "us"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

// runTimed is the timed run: one discarded warm-up trial, then sz.trials
// measured trials, each on a fresh backend or server; every metric is the
// median over the measured trials. Tracing is off.
func runTimed(w workload, seed int64, sz sizes) (result, error) {
	var (
		res                       result
		opsPerS, cpuUs, p50, sets []float64
		first                     trial
	)
	for i := 0; i <= sz.trials; i++ {
		tsz := sz
		if i == 0 {
			tsz = sz.warmup()
		}
		runtime.GC()
		t, err := w.trial(seed, tsz, probe{})
		res.Attempted += t.ops + t.failed
		res.Failed += t.failed
		if err != nil {
			return res, fmt.Errorf("trial %d: %w", i, err)
		}
		if t.failed != 0 {
			return res, fmt.Errorf("trial %d: %d of %d ops failed", i, t.failed, t.ops+t.failed)
		}
		trialP50 := float64(percentile(sortSamples(t.samples), 0.50)) / 1e3
		fmt.Printf("trial %d: ops=%d cmds=%d flushes=%d elapsed=%.3fs cpu=%.3fs setup=%.3fs p50=%.3fus\n",
			i, t.ops, t.cmds, t.flushes, t.ph.elapsed.Seconds(), t.ph.cpu.Seconds(), t.setup.Seconds(), trialP50)
		if i == 0 {
			continue
		}
		// Fixed work: every measured trial must have done exactly the same.
		if i == 1 {
			first = t
		} else if t.ops != first.ops || t.cmds != first.cmds || t.state != first.state {
			return res, fmt.Errorf("trial %d did different work than trial 1: ops %d/%d, commands %d/%d, final state %d/%d",
				i, t.ops, first.ops, t.cmds, first.cmds, t.state, first.state)
		}
		opsPerS = append(opsPerS, float64(t.ops)/t.ph.elapsed.Seconds())
		cpuUs = append(cpuUs, float64(t.ph.cpu)/1e3/float64(t.ops))
		p50 = append(p50, trialP50)
		sets = append(sets, t.setup.Seconds())
	}
	rss, err := rssPeakMB()
	if err != nil {
		return res, err
	}
	if w.on == onOpen && median(opsPerS) < 0.98*sz.openRate {
		// The saturation tripwire is on the median like every other number:
		// one trial stretched by a host stall is not a saturated server.
		return res, fmt.Errorf("open loop saturated: median achieved rate %.0f is below 0.98 of the %.0f ops/s target",
			median(opsPerS), sz.openRate)
	}
	vals := []float64{median(opsPerS), median(cpuUs), median(p50), rss, median(sets)}
	res.Metrics = make(map[string]metric, len(endToEnd))
	for i, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[i], m.unit}
	}
	res.Correct = true
	printMetrics(res.Metrics)
	return res, nil
}
