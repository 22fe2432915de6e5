// Package sched plans per-request execution width for shard fan-out.
//
// The planner answers one question: when a search request is about to fan
// out over N independent parts (shards, delta shards, sketch shapes), how
// many goroutines should it spend? The answer depends on who else is
// running. At idle, fanning out across all cores minimises latency. Under
// concurrent load, every request grabbing all cores just multiplies
// scheduler churn: the same cores finish the same total work faster when
// each request walks its parts sequentially and the cores are spent
// *across* requests instead. Only a stage's listing fans out: the shapes
// listed are then refined on the request's goroutine in one total order, so
// a sequential walk returns byte-identical results and does the same work.
//
// Signals are deliberately cheap: an in-flight gauge incremented around
// engine Search calls, the part count, and GOMAXPROCS. No timestamps, no
// feedback loops — the plan must cost nanoseconds, not microseconds.
package sched

import (
	"runtime"
	"sync/atomic"
)

// Policy selects how a request's fan-out width is chosen.
type Policy int

const (
	// Auto picks the width from live signals: full fan-out at idle,
	// narrowing toward sequential as concurrent load approaches the
	// core count.
	Auto Policy = iota
	// Sequential forces a single-goroutine walk over the parts.
	Sequential
)

// Stats is a snapshot of the planner's counters.
type Stats struct {
	// InFlight is the number of Search calls currently between Enter
	// and its release.
	InFlight int64
	// PlansFanout counts plans that chose width > 1.
	PlansFanout uint64
	// PlansSequential counts plans that chose width 1.
	PlansSequential uint64
}

// Planner tracks live load and turns (parts, policy) into a width.
// The zero value is ready to use. All methods are safe for concurrent use.
type Planner struct {
	inFlight        atomic.Int64
	plansFanout     atomic.Uint64
	plansSequential atomic.Uint64
}

// Enter records one in-flight request and returns the paired release.
// Callers must invoke the returned func exactly once, typically deferred
// around the whole Search body so the gauge covers merge and verify work,
// not just the fan-out region.
func (p *Planner) Enter() func() {
	p.inFlight.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			p.inFlight.Add(-1)
		}
	}
}

// InFlight reports the current gauge value.
func (p *Planner) InFlight() int64 { return p.inFlight.Load() }

// Width plans the fan-out width for a request over parts independent
// units of work under pol. It reads the live gauge and GOMAXPROCS and
// records the chosen plan in the counters. The result is always in
// [1, parts].
//
// The caller is expected to already be counted in the gauge (Enter before
// Width), so a lone request sees load 1 and gets the full fan-out.
func (p *Planner) Width(parts int, pol Policy) int {
	w := WidthAt(parts, pol, int(p.inFlight.Load()), runtime.GOMAXPROCS(0))
	if w > 1 {
		p.plansFanout.Add(1)
	} else {
		p.plansSequential.Add(1)
	}
	return w
}

// Stats returns a snapshot of the gauge and plan counters.
func (p *Planner) Stats() Stats {
	return Stats{
		InFlight:        p.inFlight.Load(),
		PlansFanout:     p.plansFanout.Load(),
		PlansSequential: p.plansSequential.Load(),
	}
}

// WidthAt is the pure planning function behind Width: given the part
// count, policy, current in-flight load, and core count, it returns the
// number of workers to spend. Exposed separately so the plan table is
// unit-testable without racing the live gauge.
//
//	Sequential           -> 1
//	Auto, load <= 1      -> min(parts, cores)
//	Auto, load >  1      -> min(parts, cores/load), floor 1
func WidthAt(parts int, pol Policy, load, cores int) int {
	if parts <= 1 || pol == Sequential {
		return 1
	}
	return max(1, min(parts, cores/max(load, 1)))
}
