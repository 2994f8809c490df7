package election

// This file holds the memoized exact-scoring layer. Mechanisms are random,
// but across replications they keep producing the same resolved outcomes
// up to sink relabelling: the exact score of a resolution depends only on
// the multiset of (weight, competency) pairs over its sinks, not on which
// voter carries which weight. ScoreCache exploits that by keying on the
// canonical sorted multiset, so repeated realizations cost one sort and
// one map probe instead of a full weighted-majority DP.
// DirectProbabilityExact gets the same treatment one level up: P^D depends
// only on the competency multiset, so sweeps that evaluate many mechanisms
// on one instance run the Poisson-binomial DP once.
//
// Determinism contract (see DESIGN.md "Performance kernels"): the canonical
// voter ordering is applied on every exact scoring path, cached or not, so
// toggling the caches can never change a reported value — a cached score is
// the bit-identical float the DP would recompute. Hit/miss counts, by
// contrast, depend on goroutine scheduling (two workers can miss the same
// key concurrently) and are exposed as telemetry only; they must never be
// rendered into reproduced tables.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"liquid/internal/core"
	"liquid/internal/prob"
	"liquid/internal/telemetry"
)

// wsPool hands workspaces to the entry points whose callers do not thread
// their own (ResolutionProbabilityExact, the P^D memo's keys) and to the
// replication workers. Pooling affects allocation only, never results.
var wsPool = sync.Pool{New: func() any { return prob.NewWorkspace() }}

// rvPool pools delegation resolvers for the replication workers, for the
// same reason: resolver scratch never influences Resolution values.
var rvPool = sync.Pool{New: func() any { return new(core.Resolver) }}

// scoreCacheMaxBytes bounds a plan's ScoreCache in bytes: each entry is
// charged its key's length (12 bytes a sink) plus scoreCacheEntryBytes.
// When an insertion would pass the budget the map is dropped wholesale:
// eviction order would otherwise depend on insertion order, i.e. on
// scheduling, and a cold restart is cheap because every entry is
// recomputable. A full `reproduce -scale 1 -seed 1` peaks at 815 KB of keys.
const scoreCacheMaxBytes = 32 << 20

// scoreCacheEntryBytes is the fixed part of an entry's charge: the map
// slot's string header and value, and the key allocation's rounding.
const scoreCacheEntryBytes = 64

// ScoreCache memoizes exact scores by a canonical key within a byte budget:
// a plan's resolution scores by voter multiset, and the process-wide P^D
// memo (pdCache) by competency multiset. It is safe for concurrent use;
// EvaluateMechanism shares one across its replication workers. Values are
// pure functions of their keys, so lookups compute outside the lock and a
// duplicated concurrent compute is harmless.
type ScoreCache struct {
	mu       sync.Mutex
	m        map[string]float64
	bytes    int // the entries' charge against maxBytes
	maxBytes int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewScoreCache returns an empty cache bounded at scoreCacheMaxBytes.
func NewScoreCache() *ScoreCache {
	return &ScoreCache{m: make(map[string]float64), maxBytes: scoreCacheMaxBytes}
}

// Stats returns the cache's lifetime hit and miss counts. Telemetry only:
// the split varies with scheduling under concurrent use.
func (c *ScoreCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of memoized scores.
func (c *ScoreCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Package-level cache telemetry, aggregated across all ScoreCaches and the
// direct-probability cache, registered on the telemetry.Default registry
// (this replaced the old package-local atomics + ReadKernelStats API).
// Entry points read the counts from the registry — cmd/reproduce prints a
// snapshot to stderr — but nothing in this package ever reads them back:
// telemetry is write-only with respect to results (telemflow analyzer).
var (
	cResolutionHits   = telemetry.NewCounter("election/resolution_cache_hits")
	cResolutionMisses = telemetry.NewCounter("election/resolution_cache_misses")
	cDirectHits       = telemetry.NewCounter("election/direct_cache_hits")
	cDirectMisses     = telemetry.NewCounter("election/direct_cache_misses")
)

// resolutionVoters builds the canonical voter multiset of a resolution in
// ws scratch: zero-weight sinks are dropped and the rest sorted by
// (weight, p). Canonicalization runs on every exact path — cached or not —
// both so the cache key is a function of the multiset rather than of sink
// discovery order, and so cached and uncached scores sum the same DP in
// the same order and stay bit-identical.
//
// The ordering is produced without a comparison sort: scanning the
// instance's competency order yields p-ascending sinks, and a stable
// counting sort on weight then groups them into the canonical (weight, p)
// sequence in O(n + maxWeight).
func resolutionVoters(in *core.Instance, res *core.Resolution, ws *prob.Workspace) []prob.WeightedVoter {
	voters := ws.VoterBuffer(len(res.Sinks))
	if len(res.Weight) < in.N() {
		// Synthetic all-abstained resolutions may omit the weight vector.
		return voters
	}
	for _, v := range in.CompetencyOrder() {
		if w := res.Weight[v]; w > 0 { // zero is possible with zero initial token weight
			voters = append(voters, prob.WeightedVoter{Weight: w, P: in.Competency(v)})
		}
	}
	return ws.SortVotersByWeight(voters, res.MaxWeight)
}

// resolutionKey encodes the canonical multiset into ws's key buffer:
// 12 bytes per voter, weight then the exact bits of p. Equal keys imply
// equal multisets (competencies are validated non-NaN), so a hit returns
// exactly what the DP would.
func resolutionKey(ws *prob.Workspace, voters []prob.WeightedVoter) []byte {
	b := ws.KeyBuffer(12 * len(voters))
	for _, v := range voters {
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Weight))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.P))
	}
	return b
}

// scoreVoterSet runs the exact kernel over the canonical voters using ws
// for scratch and returns the PMF's majority mass.
func scoreVoterSet(ws *prob.Workspace, voters []prob.WeightedVoter) (float64, error) {
	f, err := ws.PMF(voters)
	if err != nil {
		return 0, fmt.Errorf("delegation probability: %w", err)
	}
	return prob.MajorityMass(f), nil
}

// ResolutionProbabilityExactCached scores a resolution exactly, consulting
// cache first (nil disables memoization without changing any value). The
// DP runs outside the cache lock; the key bytes live in ws and are copied
// only on insertion. Once ws is warm an uncached call allocates nothing.
func ResolutionProbabilityExactCached(in *core.Instance, res *core.Resolution, ws *prob.Workspace, cache *ScoreCache) (float64, error) {
	if in.N() == 0 {
		return 0, ErrNoVoters
	}
	voters := resolutionVoters(in, res, ws)
	if len(voters) == 0 {
		// Everyone abstained: no correct strict majority is possible.
		return 0, nil
	}
	if cache == nil {
		return scoreVoterSet(ws, voters)
	}
	key := resolutionKey(ws, voters)
	if v, ok := cache.load(key); ok {
		cResolutionHits.Inc()
		return v, nil
	}
	cResolutionMisses.Inc()
	// The DP reads only ws's arena/FFT scratch, never the key buffer, so
	// key stays valid across the call.
	v, err := scoreVoterSet(ws, voters)
	if err != nil {
		return 0, err
	}
	cache.store(key, v)
	return v, nil
}

// load returns the value memoized under key, counting the lookup in the
// cache's hit and miss stats.
func (c *ScoreCache) load(key []byte) (float64, bool) {
	c.mu.Lock()
	v, ok := c.m[string(key)]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// store memoizes v under key within the byte budget. A key already present
// (two workers computed it concurrently) is charged once, and a key larger
// than the whole budget is not memoized.
func (c *ScoreCache) store(key []byte, v float64) {
	cost := len(key) + scoreCacheEntryBytes
	if cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[string(key)]; ok {
		return
	}
	if c.bytes+cost > c.maxBytes {
		c.m = make(map[string]float64)
		c.bytes = 0
	}
	c.m[string(key)] = v
	c.bytes += cost
}

// pdCacheMaxBytes bounds the P^D memo. A key is 8 bytes a voter, so the
// memo holds 261 keys at n = 2000, 127 at ExactDirectMaxN, and none at 2^19
// voters or more. It is not the plans' budget: the memo is process-wide and
// lives as long as the process, so it is sized to keep liquidd's resident
// set where it is. A full `reproduce -scale 1 -seed 1` peaks at 1.04 MB in
// 334 keys.
const pdCacheMaxBytes = 4 << 20

// pdCache memoizes the exact P^D by instance content. P^D is a function of
// the competency multiset alone, and the exact branch involves no
// randomness, so a cached P^D is valid for every caller: sweeps that score
// many mechanisms on one instance run the Poisson-binomial kernel once, a
// request that decodes an instance seen before hits, and the memo keeps no
// instance alive.
var pdCache = &ScoreCache{m: make(map[string]float64), maxBytes: pdCacheMaxBytes}

// pdKey encodes in's competency multiset into ws's key buffer: the exact
// bits of every competency, 8 bytes each, in CompetencyOrder — the
// ascending order the exact P^D kernel sorts into. Equal keys imply equal
// multisets, so a hit returns exactly what the DP would.
func pdKey(ws *prob.Workspace, in *core.Instance) []byte {
	b := ws.KeyBuffer(8 * in.N())
	for _, v := range in.CompetencyOrder() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.Competency(v)))
	}
	return b
}

// exactDirectProbability is the one exact P^D: prob.KernelMajority over the
// competencies with a fork budget of workers (1 never forks, and ctx may
// then be nil). With memo set it keys the instance by pdKey, returns a
// memoized value, and otherwise computes and stores one; without it the
// process-wide memo is neither read nor filled (the contract of
// SweepPoint.DisableResolutionCache). The kernel sorts the competencies
// ascending, the order resolutionVoters scores in, so P^M of an
// everyone-votes-directly delegation is bit-identical to P^D (tests and
// do-no-harm checks rely on the equality), and memoized, fresh, sequential
// and forked values are the same bytes.
func exactDirectProbability(ctx context.Context, in *core.Instance, memo bool, workers int) (float64, error) {
	var key []byte
	if memo {
		ws := wsPool.Get().(*prob.Workspace)
		defer wsPool.Put(ws)
		// The kernel borrows its own workspace, so key stays valid.
		key = pdKey(ws, in)
		if v, ok := pdCache.load(key); ok {
			cDirectHits.Inc()
			return v, nil
		}
		cDirectMisses.Inc()
	}
	v, err := prob.KernelMajority(ctx, in.Competencies(), workers)
	if err != nil {
		return 0, fmt.Errorf("direct probability: %w", err)
	}
	if memo {
		pdCache.store(key, v)
	}
	return v, nil
}
