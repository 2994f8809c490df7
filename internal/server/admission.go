package server

// Admission control. Every request carries a DP-unit cost estimate from the
// same cost model the election engine uses to pick exact vs Monte-Carlo
// scoring (prob.PoissonBinomialDPCost / prob.WeightedMajorityDPCost), and
// the controller sheds with 429 + Retry-After once either the queue depth
// or the admitted-but-unfinished cost would exceed its budget. The
// controller keeps its own atomics for the admit/shed decision — telemetry
// is write-only by contract (the telemflow analyzer forbids reading it back
// here), so the gauges mirror these values rather than being them.

import (
	"sync/atomic"

	"liquid/internal/prob"
	"liquid/internal/telemetry"
)

// EstimateCost returns the admission cost of evaluating one sweep point on
// an n-voter instance in DP units: the one-off exact P^D table plus, per
// replication, the worst-case weighted-majority DP (all n voters sink into
// n units of weight), saturated at exactLimit because the engine switches
// that replication to Monte-Carlo sampling beyond it.
func EstimateCost(n, replications int, exactLimit int64) int64 {
	perRep := prob.WeightedMajorityDPCost(n, n)
	if perRep > exactLimit {
		perRep = exactLimit
	}
	return prob.PoissonBinomialDPCost(n) + int64(replications)*perRep
}

// EstimateWhatIfDeltaCost prices a delta what-if against an n-voter
// post-delta election: O(n) to resolve the profile, plus
// prob.DeltaUpdateCost(n) for each delta and one more, saturated at the
// explicit-profile cost. A delta what-if runs the same exact kernels as an
// explicit one, so this class prices it below EstimateCost; it keeps its
// values until admission is calibrated against the engine.
func EstimateWhatIfDeltaCost(n, deltas int, exactLimit int64) int64 {
	cost := int64(n) + int64(deltas+1)*prob.DeltaUpdateCost(n)
	if full := EstimateCost(n, 1, exactLimit); cost > full {
		cost = full
	}
	return cost
}

// EstimateLadderCost prices a what-if scored through the certified
// approximation ladder: resolving the profile is O(n), and the ladder itself
// costs prob.LadderCostEstimate — O(n) for a budgeted large query the normal
// tier can certify, plus the kernel-tier cost where escalation is plausible.
// This is what lets the daemon admit million-voter budgeted queries that the
// exact-DP price would shed.
func EstimateLadderCost(n int, errorBudget float64) int64 {
	return int64(n) + prob.LadderCostEstimate(n, errorBudget)
}

// admission is the bounded-queue, bounded-cost gate in front of the worker
// pool.
type admission struct {
	maxQueue int64
	maxCost  int64

	queued atomic.Int64 // admitted, not yet finished
	cost   atomic.Int64 // DP-unit cost of admitted, not-yet-finished work
	shed   atomic.Uint64

	gQueue *telemetry.Gauge
	gCost  *telemetry.Gauge
	cShed  *telemetry.Counter
}

func newAdmission(maxQueue int, maxCost int64) *admission {
	return &admission{
		maxQueue: int64(maxQueue),
		maxCost:  int64(maxCost),
		gQueue:   telemetry.NewGauge("server/queue_depth"),
		gCost:    telemetry.NewGauge("server/inflight_cost"),
		cShed:    telemetry.NewCounter("server/shed"),
	}
}

// admit reserves a queue slot and cost units, or reports a shed. The
// reservation is optimistic (add, check, undo): two racing admits can both
// briefly exceed the budget by one request, which errs on the side of
// shedding — the budget is a shed threshold, not a hard resource bound.
func (a *admission) admit(cost int64) bool {
	if q := a.queued.Add(1); q > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		a.cShed.Inc()
		return false
	}
	// The first admission always fits: a single request costlier than the
	// whole budget must still be servable, or the budget silently caps n.
	if c := a.cost.Add(cost); c > a.maxCost && c != cost {
		a.cost.Add(-cost)
		a.queued.Add(-1)
		a.shed.Add(1)
		a.cShed.Inc()
		return false
	}
	a.mirror()
	return true
}

// release returns an admitted request's reservation.
func (a *admission) release(cost int64) {
	a.cost.Add(-cost)
	a.queued.Add(-1)
	a.mirror()
}

// mirror copies the controller's state onto the write-only telemetry
// gauges.
func (a *admission) mirror() {
	a.gQueue.Set(float64(a.queued.Load()))
	a.gCost.Set(float64(a.cost.Load()))
}
