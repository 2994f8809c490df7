package server

// The retained-scenario cache behind the delta what-if path. Delta
// traffic is "one base election, many small edits": a client pins a base
// (instance, delegations) pair and probes variations — re-pointed
// delegations, a changed competency, a joined or departed voter. Scoring
// each probe from scratch costs the full exact DP; an election.Scenario
// retains the divide-and-conquer convolution tree between probes and
// patches only what the edit touched, so the cache keys scenarios by the
// base election's content and rebases the retained scenario onto the base
// profile before each probe.
//
// Sharing discipline: entries are content-addressed (the key hashes n,
// the topology, the competency bits, and the base delegations), so two
// requests that name the same base byte-for-byte share one entry, and the
// per-entry mutex serializes them — a Scenario is single-threaded scratch
// by contract. Requests whose deltas mutate the instance itself would
// advance the retained scenario's plan away from the cached base, so they
// run on a throwaway scenario that still shares the cached plan's score
// cache (its values are instance-independent). Bit-identity is preserved
// throughout: Scenario.Score/PD equal ResolutionProbabilityExact/
// DirectProbabilityExact on the post-delta election, so a cached, patched
// answer is byte-identical to a cold one — which is what lets liquidload
// -verify diff served delta responses against offline evaluation.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/telemetry"
)

// scenarioCacheMaxEntries bounds the cache; eviction is wholesale, like
// the election package's P^D memo — load spread across many distinct
// bases degrades to miss-and-rebuild, never unbounded growth.
const scenarioCacheMaxEntries = 8

// scenarioCache content-addresses retained evaluation scenarios.
type scenarioCache struct {
	mu      sync.Mutex
	entries map[[32]byte]*scenarioEntry

	cHits   *telemetry.Counter
	cMisses *telemetry.Counter
}

// scenarioEntry is one base election's retained state. mu serializes
// every evaluation against the entry; base is the entry's own copy of the
// base profile, the rebase target before each probe.
type scenarioEntry struct {
	mu   sync.Mutex
	plan *election.Plan
	base *core.DelegationGraph
	sc   *election.Scenario
}

func newScenarioCache() *scenarioCache {
	return &scenarioCache{
		entries: make(map[[32]byte]*scenarioEntry),
		cHits:   telemetry.NewCounter("server/scenario_cache_hits"),
		cMisses: telemetry.NewCounter("server/scenario_cache_misses"),
	}
}

// scenarioKey hashes the base election's content: two requests agree on a
// key iff they describe the same voters, topology, competency bits, and
// base delegations.
func scenarioKey(in *core.Instance, d *core.DelegationGraph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeInt(in.N())
	switch top := in.Topology().(type) {
	case graph.Complete:
		writeInt(-1)
	case *graph.Graph:
		edges := top.Edges()
		writeInt(len(edges))
		for _, e := range edges {
			writeInt(e[0])
			writeInt(e[1])
		}
	default:
		writeInt(-2)
	}
	for _, p := range in.Competencies() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	for _, t := range d.Delegate {
		writeInt(t)
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// acquire returns the entry for a base election, creating it on miss.
func (c *scenarioCache) acquire(in *core.Instance, d *core.DelegationGraph) *scenarioEntry {
	k := scenarioKey(in, d)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		c.cHits.Inc()
		return e
	}
	c.cMisses.Inc()
	if len(c.entries) >= scenarioCacheMaxEntries {
		clear(c.entries)
	}
	e := &scenarioEntry{}
	c.entries[k] = e
	return e
}

// score runs fn on the retained scenario of parsed's base election,
// advanced by parsed's deltas, holding the entry's lock. The scenario's
// Score and PD are P^M and P^D of the post-delta election, bit-identical
// to from-scratch exact scoring.
func (c *scenarioCache) score(parsed *ParsedWhatIf, exactLimit int64, fn func(*election.Scenario) error) error {
	entry := c.acquire(parsed.Instance, parsed.Graph)
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if entry.sc == nil {
		// First sight of this base: pin a plan and a retained scenario.
		// Workers 1 and a single replication — the serving layer's
		// parallelism is across requests, and scenario scoring is exact.
		plan, err := election.NewPlan(parsed.Instance, election.Options{Replications: 1, ExactCostLimit: exactLimit, Workers: 1})
		if err != nil {
			return err
		}
		sc, err := election.NewScenario(plan, parsed.Graph)
		if err != nil {
			return err
		}
		entry.plan = plan
		entry.base = &core.DelegationGraph{Delegate: append([]int(nil), parsed.Graph.Delegate...)}
		entry.sc = sc
	}
	sc := entry.sc
	if instanceLevel(parsed.Deltas) {
		// Structural deltas would advance the retained scenario's plan away
		// from the cached base; a throwaway scenario keeps the entry clean
		// while still sharing the cached plan's score cache.
		var err error
		if sc, err = election.NewScenario(entry.plan, entry.base); err != nil {
			return err
		}
	} else {
		// Rebase the retained scenario onto the base profile; its tree
		// diffs the next Score against whatever the previous probe left
		// behind, so nearby probes patch rather than rebuild.
		if err := sc.SetDelegation(entry.base); err != nil {
			return err
		}
	}
	if err := sc.ApplyDelta(parsed.Deltas...); err != nil {
		return err
	}
	return fn(sc)
}

// instanceLevel reports whether any delta mutates the instance itself
// (rather than only the delegation profile).
func instanceLevel(deltas []election.Delta) bool {
	for _, d := range deltas {
		if d.Kind != election.DeltaRepoint {
			return true
		}
	}
	return false
}
