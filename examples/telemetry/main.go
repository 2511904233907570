// Telemetry: a metrics pipeline shaped like a real agent — producers emit
// samples, one aggregator drains them — showing three adjustments working
// together:
//
//   - samples flow through an MPSC queue (producers never contend with the
//     consumer's head updates);
//   - per-metric totals and the rate-limited drops land in increment-only
//     counters (CWSR: the aggregator is the single reader);
//   - the agent configuration lives in an RCU box: readers take an immutable
//     snapshot; the control goroutine replaces it wholesale mid-run.
//
// It prints the samples produced, drained and dropped and the final
// configuration, and warns if the pipeline lost a sample.
package main

import (
	"fmt"
	"runtime"
	"sync"

	dego "github.com/adjusted-objects/dego"
)

type sample struct {
	Metric int
	Value  int64
}

type agentConfig struct {
	SampleEvery int
	Tags        []string
}

const (
	producers = 6
	metrics   = 4
	perProd   = 50_000
)

func main() {
	reg := dego.NewRegistry(producers + 4)
	// Declared profiles: the pipe is written by many producers and drained
	// by one consumer (MWSR, guard ON: misuse panics); the config has a
	// single control-plane writer (SWMR, an RCU box under the hood); the
	// counters are blind increments read by the aggregator alone (CWSR,
	// per-thread cells).
	pipe := dego.Must(dego.Queue[sample](dego.SingleReader(), dego.Checked()))
	cfg := dego.Must(dego.Ref(&agentConfig{SampleEvery: 10, Tags: []string{"host:a"}},
		dego.SingleWriter(), dego.Checked()))

	counters := make([]*dego.AdjustedCounter, metrics)
	for i := range counters {
		counters[i] = dego.Must(dego.Counter(dego.Blind(), dego.SingleReader(), dego.On(reg)))
	}
	dropped := dego.Must(dego.Counter(dego.Blind(), dego.SingleReader(), dego.On(reg)))

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for i := 0; i < perProd; i++ {
				c := cfg.Get(h) // immutable snapshot, one atomic load
				if i%c.SampleEvery != 0 {
					dropped.Inc(h)
					continue
				}
				pipe.Offer(h, sample{Metric: (p + i) % metrics, Value: int64(i)})
				counters[(p+i)%metrics].Inc(h)
			}
		}(p)
	}

	// Control plane: retune the config mid-flight (single RCU writer).
	control := reg.MustRegister()
	cfg.Update(control, func(old *agentConfig) *agentConfig {
		next := *old
		next.SampleEvery = 5
		next.Tags = append(append([]string(nil), old.Tags...), "tuned:yes")
		return &next
	})

	// Aggregator: the unique consumer.
	aggDone := make(chan int64)
	go func() {
		h := reg.MustRegister()
		defer h.Release()
		var drained, idle int64
		buf := make([]sample, 256)
		for idle < 10_000 {
			n := pipe.Drain(h, buf, len(buf))
			if n == 0 {
				idle++
				runtime.Gosched()
				continue
			}
			idle = 0
			drained += int64(n)
		}
		aggDone <- drained
	}()

	wg.Wait()
	drained := <-aggDone

	var produced int64
	for _, c := range counters {
		produced += c.Get(control)
	}
	fmt.Printf("samples produced: %d, drained: %d, dropped (rate limit): %d\n",
		produced, drained, dropped.Get(control))
	fmt.Printf("final config: every=%d tags=%v\n",
		cfg.Get(control).SampleEvery, cfg.Get(control).Tags)
	if produced != drained {
		fmt.Println("WARNING: pipeline lost samples")
	}
}
