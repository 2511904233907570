package dego

import (
	"github.com/adjusted-objects/dego/internal/advisor"
	"github.com/adjusted-objects/dego/internal/usage"
)

// This file is the public face of the tuning advisor: WithUsageRecording
// (options.go) attaches a usage recorder to a constructed object, the
// wrapper methods feed it, and Advise() on each Adjusted* wrapper runs the
// inference — observed traffic back to the most adjusted declared profile
// the evidence permits, re-certified against Definition 1. The intended
// loop is the ROADMAP's profile-inference item: build the object
// *unadjusted* with recording, replay a representative workload, then read
// Advise() and move the recommended options into the declaration.

// Advice is one certified recommendation from the tuning advisor: the
// profile the recorded evidence permits (as claims and as ready-to-paste
// option expressions), the Table 1 object it plans to, whether the
// executable Definition 1 certifies it, and the evidence for — plus the
// counter-evidence that blocked stronger claims.
type Advice = advisor.Advice

// UsageTrace is the observation summary a usage recorder accumulates:
// per-method call counts, writer/reader thread cardinality, key-overlap
// and overwrite evidence. Advice.Trace carries the window an Advice was
// inferred from.
type UsageTrace = usage.Trace

// adviseObject runs the advisor over a wrapper's recorder; ok is false
// when the object was constructed without WithUsageRecording.
func adviseObject(plan *Plan, rec *usage.Recorder) (Advice, bool) {
	if rec == nil {
		return Advice{}, false
	}
	return advisor.Advise(advisor.Current{
		Datatype: plan.Datatype,
		Variant:  plan.Variant,
		Mode:     plan.Mode.String(),
		Rep:      plan.Rep,
	}, rec.Trace()), true
}

// usageKeyCells sizes a recorder's key-evidence table from the declared
// capacity: four cells per expected key keeps the open-addressing table
// far from saturation (which would block the advisor's key-dependent
// claims), with the package default as the floor.
func usageKeyCells(capacity int) int {
	if c := 4 * capacity; c > usage.DefaultKeyCells {
		return c
	}
	return usage.DefaultKeyCells
}
