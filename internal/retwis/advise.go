package retwis

// The advisor replay: run the Table-2 workload against the table program's
// RECORDED row — every top-level shared object built *unadjusted* but
// carrying a usage recorder — then ask the tuning advisor which
// declarations the observed traffic would have permitted. The point of the
// exercise is that the advisor rediscovers, from traffic alone, the profile
// the hand-tuned DEGO row declares from domain knowledge: the per-user maps
// and the community set are commuting-writers (each user is owned by one
// thread), the timelines are single-consumer queues, a global post counter
// is blind-commuting with one reader, and the run metadata reference is
// write-once. AdviseRun returns one TableAdvice per table, pairing the
// advisor's certified recommendation with the hand-tuned declaration so a
// report (or a test) can diff them.

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/core"
)

// TableAdvice is the advisor's verdict for one of the replay's shared
// tables, alongside the declaration the hand-tuned backends make for the
// same table ("" when no backend hand-declares it).
type TableAdvice struct {
	Table    string      `json:"table"`
	Declared string      `json:"declared,omitempty"`
	Advice   dego.Advice `json:"advice"`
}

// Rediscovered reports whether the advisor's recommendation is exactly
// the hand-tuned declaration (meaningless when none exists).
func (t TableAdvice) Rediscovered() bool {
	return t.Declared != "" && t.Advice.Declared() == t.Declared
}

// runMeta is the one-time run metadata the replay publishes through a
// write-once reference (the R2 evidence source).
type runMeta struct {
	Users   int
	Threads int
}

// AdviseRun replays the Table-2 workload unadjusted-with-recorders and
// returns the advisor's per-table recommendations. p.OpsPerThread bounds
// the measured phase (0 means 2000 — the replay is evidence gathering,
// not a benchmark, so op-count mode keeps it deterministic).
func AdviseRun(p Params) ([]TableAdvice, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	ops := p.OpsPerThread
	if ops <= 0 {
		ops = 2000
	}

	reg := core.NewRegistry(p.Threads + 8)
	workers := make([]*core.Handle, p.Threads)
	for i := range workers {
		workers[i] = reg.MustRegister()
	}

	// The recorded row's tables, plus the two objects the replay adds to
	// exercise the remaining inference rules: a global post counter and the
	// run metadata reference.
	t := newTableBackend(kindRecorded, p.Users, reg)
	posts := dego.Must(dego.Counter(dego.On(reg), dego.WithUsageRecording()))
	meta := dego.Must(dego.Ref[runMeta](nil, dego.On(reg), dego.WithUsageRecording()))

	// Seed the graph with each user's OWNER handle, so seeding writes carry
	// the same attribution steady-state writes will — the replay must show
	// the advisor the ownership discipline, not a priming artifact.
	seed(t, kindRecorded, p, workers)

	// The one-time run metadata: a single Set by worker 0, reads from every
	// worker below — the write-once, single-writer evidence.
	if err := meta.Set(workers[0], &runMeta{Users: p.Users, Threads: p.Threads}); err != nil {
		return nil, err
	}

	partUsers := partitions(p)

	var wg sync.WaitGroup
	wg.Add(p.Threads)
	for tid := 0; tid < p.Threads; tid++ {
		go func(tid int) {
			defer wg.Done()
			h := workers[tid]
			meta.Get(h)
			gen := NewGenerator(tid, p, partUsers[tid], false)
			tl := make([]Tweet, TimelineSize)
			for i := 0; i < ops; i++ {
				op := gen.Next()
				if op.Kind == OpPost {
					posts.Inc(h)
				}
				apply(t, h, op, tl)
			}
		}(tid)
	}
	wg.Wait()

	// The post count is read once, by one thread — the single-reader
	// evidence the blind counter needs for its strongest profile.
	posts.Get(workers[0])

	// The comparison baseline is what the DEGO row's own tables declare —
	// the planner's output for the hand-tuned row, not a string literal.
	// Plans do not depend on sizes, so a token user count suffices.
	hand := newTableBackend(KindDEGO, 1, reg)
	out := make([]TableAdvice, 0, 8)
	for _, e := range []struct {
		table    string
		declared string
		advise   func() (dego.Advice, bool)
	}{
		{"followers", hand.followers.Plan().Declared(), t.followers.Advise},
		{"following", hand.following.Plan().Declared(), t.following.Advise},
		{"timelines", hand.timelines.Plan().Declared(), t.timelines.Advise},
		{"profiles", hand.profiles.Plan().Declared(), t.profiles.Advise},
		{"community", hand.community.Plan().Declared(), t.community.Advise},
		{"timeline:0", hand.row.timeline(0).Plan().Declared(), func() (dego.Advice, bool) {
			// Fetched only now, after the timelines map gave its advice,
			// so the lookup is not part of the recorded traffic.
			q, _ := t.timelines.Get(0)
			return q.Advise()
		}},
		{"posts:count", "", posts.Advise},
		{"run:meta", "", meta.Advise},
	} {
		a, ok := e.advise()
		if !ok {
			panic("retwis: recorded table missing its recorder: " + e.table)
		}
		out = append(out, TableAdvice{Table: e.table, Declared: e.declared, Advice: a})
	}
	return out, nil
}

// AdviseHeader renders the replay parameters for WriteAdviceReport.
func AdviseHeader(p Params) string {
	return fmt.Sprintf("unadjusted replay (users=%d, threads=%d)", p.Users, p.Threads)
}

// WriteAdviceReport renders per-table advice as text: one block per table
// with the current plan, the certified recommendation, the ready-to-paste
// options, the hand-tuned declaration when one exists, and the advisor's
// reasoning in both directions. header describes where the tables came
// from (replay parameters, or the file a formatter read).
func WriteAdviceReport(w io.Writer, header string, tables []TableAdvice) {
	fmt.Fprintf(w, "=== Tuning advisor: %s ===\n", header)
	rediscovered, declaredCount := 0, 0
	for _, t := range tables {
		a := t.Advice
		fmt.Fprintf(w, "\n## %s\n", t.Table)
		fmt.Fprintf(w, "  current:     (%s, %s) — %s\n", a.Current.Variant, a.Current.Mode, a.Current.Rep)
		cert := "certified"
		if !a.Certified {
			cert = "NOT CERTIFIED: " + a.CertError
		}
		fmt.Fprintf(w, "  recommended: %s [%s]\n", a.Declared(), cert)
		fmt.Fprintf(w, "  options:     %s\n", strings.Join(a.Options, ", "))
		if t.Declared != "" {
			declaredCount++
			verdict := "DIFFERS"
			if t.Rediscovered() {
				verdict = "rediscovered"
				rediscovered++
			}
			fmt.Fprintf(w, "  hand-tuned:  %s  [%s]\n", t.Declared, verdict)
		}
		for _, e := range a.Evidence {
			fmt.Fprintf(w, "  evidence:    %s\n", e)
		}
		for _, e := range a.CounterEvidence {
			fmt.Fprintf(w, "  against:     %s\n", e)
		}
	}
	fmt.Fprintf(w, "\n%d/%d hand-tuned declarations rediscovered from traffic\n",
		rediscovered, declaredCount)
}
