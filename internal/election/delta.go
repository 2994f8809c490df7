package election

// Incremental re-evaluation (DESIGN.md §15). A Plan canonicalises one
// instance; evolving-graph workloads — delegation churn, BA growth, liquidd
// what-if queries — evaluate long chains of instances that differ from
// their predecessor by a handful of voters. ApplyDelta derives the next
// plan from the previous one instead of starting over:
//
//   - the ScoreCache is shared: its values are pure functions of canonical
//     (weight, p) multisets, independent of which instance produced them,
//     so every multiset the mutated instance re-realizes is a hit;
//   - the exact P^D is patched through a retained prob.DeltaTree over the
//     weight-1 competency multiset: a k-voter delta costs O(k log n)
//     merges instead of the full O(n^2 / FFT) table build
//     (n <= ExactDirectMaxN only — above that P^D is Monte-Carlo and
//     seed-dependent, never memoized);
//   - everything else a Plan owns is either immutable or rebuilt lazily.
//
// Scenario is the delegation-level counterpart: it pins one plan and one
// delegation profile and re-scores P^M through its own retained tree as
// the profile is edited. Dynamics (best-response sweeps, churn) and the
// liquidd what-if endpoint sit on Scenario.
//
// The correctness gate for everything in this file is bit-identity: a
// derived plan must be indistinguishable, byte for byte, from a fresh
// NewPlan on the mutated instance, and a Scenario score must equal
// ResolutionProbabilityExact on the same resolution. Both reduce to the
// DeltaTree's own guarantee (a patched tree equals a from-scratch build)
// plus using the same canonical voter orders the transient paths use:
// CompetencyOrder for P^D — ascending competency, which is the value
// order sort.Float64s produces in directProbabilityCached, competencies
// being non-negative — and resolutionVoters for P^M.

import (
	"fmt"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/prob"
)

// DeltaKind enumerates the supported incremental edits.
type DeltaKind int

const (
	// DeltaCompetency changes Voter's competency to P.
	DeltaCompetency DeltaKind = iota + 1
	// DeltaRepoint re-points Voter's delegation to Target
	// (core.NoDelegate for direct). Only Scenario accepts it: a Plan has
	// no delegation profile to edit.
	DeltaRepoint
	// DeltaAddVoter appends a voter with competency P and explicit-graph
	// edges to each id in Edges. On complete topologies Edges must be nil
	// (the new voter is adjacent to everyone by construction).
	DeltaAddVoter
	// DeltaRemoveVoter removes Voter; higher ids shift down by one. In a
	// Scenario, delegations onto the removed voter become direct.
	DeltaRemoveVoter
	// DeltaAddEdge adds the undirected edge {Voter, Target} (explicit
	// graphs only).
	DeltaAddEdge
	// DeltaRemoveEdge removes the undirected edge {Voter, Target}
	// (explicit graphs only).
	DeltaRemoveEdge
)

// String names the kind for error messages.
func (k DeltaKind) String() string {
	switch k {
	case DeltaCompetency:
		return "competency"
	case DeltaRepoint:
		return "repoint"
	case DeltaAddVoter:
		return "add-voter"
	case DeltaRemoveVoter:
		return "remove-voter"
	case DeltaAddEdge:
		return "add-edge"
	case DeltaRemoveEdge:
		return "remove-edge"
	default:
		return fmt.Sprintf("DeltaKind(%d)", int(k))
	}
}

// Delta is one incremental edit. Which fields matter depends on Kind; see
// the kind constants.
type Delta struct {
	Kind   DeltaKind
	Voter  int
	Target int
	P      float64
	Edges  []int
}

// applyInstanceDeltas folds instance-level deltas over in, returning the
// mutated instance. Competency changes use the O(n) patched constructor;
// structural edits (voter/edge add/remove) rebuild the topology and run
// the full NewInstance.
func applyInstanceDeltas(in *core.Instance, deltas []Delta) (*core.Instance, error) {
	for _, d := range deltas {
		var err error
		switch d.Kind {
		case DeltaCompetency:
			in, err = in.WithCompetency(d.Voter, d.P)
		case DeltaAddVoter:
			in, err = addVoter(in, d)
		case DeltaRemoveVoter:
			in, err = removeVoter(in, d.Voter)
		case DeltaAddEdge, DeltaRemoveEdge:
			in, err = editEdge(in, d)
		case DeltaRepoint:
			err = fmt.Errorf("election: %s delta needs a delegation profile; apply it through a Scenario", d.Kind)
		default:
			err = fmt.Errorf("election: unknown delta kind %s", d.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func addVoter(in *core.Instance, d Delta) (*core.Instance, error) {
	n := in.N()
	p := append(in.Competencies(), d.P)
	switch top := in.Topology().(type) {
	case graph.Complete:
		if len(d.Edges) != 0 {
			return nil, fmt.Errorf("election: add-voter on a complete topology takes no edge list")
		}
		return core.NewInstance(graph.NewComplete(n+1), p)
	case *graph.Graph:
		g, err := graph.NewGraphFromEdges(n+1, top.Edges())
		if err != nil {
			return nil, fmt.Errorf("election: add-voter: %w", err)
		}
		for _, u := range d.Edges {
			if err := g.AddEdge(u, n); err != nil {
				return nil, fmt.Errorf("election: add-voter edge {%d,%d}: %w", u, n, err)
			}
		}
		return core.NewInstance(g, p)
	default:
		return nil, fmt.Errorf("election: add-voter unsupported on topology %T", top)
	}
}

func removeVoter(in *core.Instance, v int) (*core.Instance, error) {
	n := in.N()
	if v < 0 || v >= n {
		return nil, fmt.Errorf("election: remove-voter %d out of range [0,%d)", v, n)
	}
	ps := in.Competencies()
	p := append(ps[:v], ps[v+1:]...)
	switch top := in.Topology().(type) {
	case graph.Complete:
		return core.NewInstance(graph.NewComplete(n-1), p)
	case *graph.Graph:
		var edges [][2]int
		for _, e := range top.Edges() {
			if e[0] == v || e[1] == v {
				continue
			}
			if e[0] > v {
				e[0]--
			}
			if e[1] > v {
				e[1]--
			}
			edges = append(edges, e)
		}
		g, err := graph.NewGraphFromEdges(n-1, edges)
		if err != nil {
			return nil, fmt.Errorf("election: remove-voter: %w", err)
		}
		return core.NewInstance(g, p)
	default:
		return nil, fmt.Errorf("election: remove-voter unsupported on topology %T", top)
	}
}

func editEdge(in *core.Instance, d Delta) (*core.Instance, error) {
	top, ok := in.Topology().(*graph.Graph)
	if !ok {
		return nil, fmt.Errorf("election: %s requires an explicit graph topology, have %T", d.Kind, in.Topology())
	}
	u, v := d.Voter, d.Target
	var edges [][2]int
	switch d.Kind {
	case DeltaAddEdge:
		if top.HasEdge(u, v) {
			return nil, fmt.Errorf("election: add-edge {%d,%d}: already present", u, v)
		}
		edges = append(top.Edges(), [2]int{u, v})
	default: // DeltaRemoveEdge
		if !top.HasEdge(u, v) {
			return nil, fmt.Errorf("election: remove-edge {%d,%d}: not present", u, v)
		}
		for _, e := range top.Edges() {
			if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
				continue
			}
			edges = append(edges, e)
		}
	}
	g, err := graph.NewGraphFromEdges(in.N(), edges)
	if err != nil {
		return nil, fmt.Errorf("election: %s {%d,%d}: %w", d.Kind, u, v, err)
	}
	return core.NewInstance(g, in.Competencies())
}

// competencyVoters fills buf with the instance's weight-1 canonical voter
// sequence — ascending competency, the order both P^D paths score.
func competencyVoters(in *core.Instance, buf []prob.WeightedVoter) []prob.WeightedVoter {
	buf = buf[:0]
	for _, v := range in.CompetencyOrder() {
		buf = append(buf, prob.WeightedVoter{Weight: 1, P: in.Competency(v)})
	}
	return buf
}

// ApplyDelta derives the plan of the mutated instance. The derived plan is
// bit-identical in every evaluation to NewPlan on the same mutated
// instance — EvaluateSweep, P^D, the lot — but shares the receiver's score
// cache (its values are instance-independent pure functions) and, for
// n <= ExactDirectMaxN, patches the receiver's retained P^D tree instead of
// re-running the full table, an O(k log n) update for a k-voter delta.
//
// The retained tree MOVES to the derived plan: a chain of ApplyDelta calls
// (churn, growth) keeps patching one tree, while the receiver — typically
// retired at that point — falls back to the ordinary memo path if evaluated
// again. The patch itself is lazy: it runs on the derived plan's first
// exact P^D read (refreshPDLocked), so delta chains that never ask for P^D
// — P^M-only what-if probes, churn scoring — pay nothing, and a chain of k
// unread deltas collapses into one diff when finally read. Repoint deltas
// are rejected here; apply them through a Scenario.
func (p *Plan) ApplyDelta(deltas ...Delta) (*Plan, error) {
	in2, err := applyInstanceDeltas(p.in, deltas)
	if err != nil {
		return nil, err
	}
	if in2.N() == 0 {
		return nil, ErrNoVoters
	}
	derived := &Plan{in: in2, opts: p.opts, scores: p.scores}
	if in2.N() > ExactDirectMaxN {
		return derived, nil
	}
	p.pdMu.Lock()
	derived.pdTree = p.pdTree
	p.pdTree = nil
	p.pdMu.Unlock()
	derived.pdStale = true
	return derived, nil
}

// refreshPDLocked settles a delta-derived plan's deferred P^D: seed or
// patch the retained tree against the current instance and memoize its
// majority mass. Tree results are bit-identical to from-scratch builds, so
// the memoized value equals what directProbabilityExactFresh would compute
// — the global pdCache entry it feeds is sound for every future reader.
// The caller holds p.pdMu.
func (p *Plan) refreshPDLocked() (float64, error) {
	voters := competencyVoters(p.in, nil)
	var err error
	if p.pdTree == nil {
		if p.pdTree, err = prob.NewDeltaTree(voters); err != nil {
			return 0, fmt.Errorf("election: delta P^D tree: %w", err)
		}
	} else if err = p.pdTree.Update(voters); err != nil {
		return 0, fmt.Errorf("election: delta P^D tree: %w", err)
	}
	v := p.pdTree.ProbCorrectDecision()
	p.pdStale = false
	p.pd, p.pdSet = v, true
	pdCachePut(p.in, v)
	return v, nil
}

// DeltaTreeStats returns the retained P^D tree's deterministic counters
// (zero if the plan has none). Deterministic: pure functions of the
// ApplyDelta call sequence, safe to render in reproduced tables.
func (p *Plan) DeltaTreeStats() prob.DeltaTreeStats {
	p.pdMu.Lock()
	defer p.pdMu.Unlock()
	if p.pdTree == nil {
		return prob.DeltaTreeStats{}
	}
	return p.pdTree.Stats()
}

// Scenario pins one plan and one delegation profile and re-scores the
// profile incrementally as it is edited. It owns its resolver, workspace,
// and retained trees — a Scenario is single-threaded scratch, not a shared
// artifact — and its plan reference advances through derived plans as
// instance-level deltas arrive.
type Scenario struct {
	plan *Plan
	d    *core.DelegationGraph
	rv   core.Resolver
	ws   *prob.Workspace

	// tree retains the weighted-majority evaluation of the current
	// resolution's canonical multiset; consecutive scores after small
	// edits patch it instead of re-running the DP.
	tree *prob.DeltaTree

	// pdTree retains the scenario's own weight-1 P^D evaluation,
	// independent of the plan chain's tree so that serving scenarios never
	// steal a tree the plan chain is still patching.
	pdTree *prob.DeltaTree

	pm    float64
	pmSet bool
	res   resolutionSummary

	// lastRes retains the most recent resolve of s.d. Resolution structure
	// is a pure function of the delegation profile, so competency and edge
	// deltas — which leave the profile alone — keep it valid and Score skips
	// the re-resolve.
	lastRes *core.Resolution
}

// resolutionSummary is the structural snapshot of the last resolve.
type resolutionSummary struct {
	sinks        int
	maxWeight    int
	totalWeight  int
	delegators   int
	longestChain int
}

// NewScenario pins plan's current instance and a copy of d.
func NewScenario(plan *Plan, d *core.DelegationGraph) (*Scenario, error) {
	if d.N() != plan.Instance().N() {
		return nil, fmt.Errorf("%w: delegation over %d voters for instance of %d", core.ErrInvalidDelegation, d.N(), plan.Instance().N())
	}
	s := &Scenario{plan: plan, ws: prob.NewWorkspace()}
	s.d = copyDelegation(d)
	return s, nil
}

func copyDelegation(d *core.DelegationGraph) *core.DelegationGraph {
	c := &core.DelegationGraph{Delegate: append([]int(nil), d.Delegate...)}
	if d.Abstained != nil {
		c.Abstained = append([]bool(nil), d.Abstained...)
	}
	return c
}

// Plan returns the scenario's current (possibly derived) plan.
func (s *Scenario) Plan() *Plan { return s.plan }

// Delegation returns the scenario's profile. It is the scenario's own
// mutable copy: callers may read it freely but must route edits through
// ApplyDelta/SetDelegate so the retained score stays coherent.
func (s *Scenario) Delegation() *core.DelegationGraph { return s.d }

// SetDelegate re-points voter i to j (core.NoDelegate for direct),
// invalidating the retained score. It is the primitive behind
// DeltaRepoint, exposed directly for tight loops (best-response sweeps
// try many candidate targets per voter).
func (s *Scenario) SetDelegate(i, j int) error {
	if j == core.NoDelegate {
		if i < 0 || i >= s.d.N() {
			return fmt.Errorf("%w: voter %d out of range", core.ErrInvalidDelegation, i)
		}
		s.d.Delegate[i] = core.NoDelegate
	} else if err := s.d.SetDelegate(i, j); err != nil {
		return err
	}
	s.pmSet = false
	s.lastRes = nil
	return nil
}

// SetDelegation replaces the whole profile (the scenario keeps its own
// copy). The retained tree diffs the next Score against whatever it last
// evaluated, so rebasing between nearby profiles stays cheap.
func (s *Scenario) SetDelegation(d *core.DelegationGraph) error {
	if d.N() != s.plan.Instance().N() {
		return fmt.Errorf("%w: delegation over %d voters for instance of %d", core.ErrInvalidDelegation, d.N(), s.plan.Instance().N())
	}
	s.d = copyDelegation(d)
	s.pmSet = false
	s.lastRes = nil
	return nil
}

// ApplyDelta applies deltas in order: repoints edit the profile in place,
// instance-level deltas advance the plan chain and remap the profile where
// ids shift. On error the scenario is left unchanged (deltas are staged
// against copies until all validate).
func (s *Scenario) ApplyDelta(deltas ...Delta) error {
	plan := s.plan
	d := copyDelegation(s.d)
	profileEdited := false
	for _, dl := range deltas {
		if dl.Kind != DeltaRepoint {
			p2, err := plan.ApplyDelta(dl)
			if err != nil {
				return err
			}
			plan = p2
		}
		switch dl.Kind {
		case DeltaRepoint, DeltaAddVoter, DeltaRemoveVoter:
			profileEdited = true
		}
		d2, err := applyProfileDelta(d, dl)
		if err != nil {
			return err
		}
		d = d2
	}
	s.plan = plan
	s.d = d
	s.pmSet = false
	if profileEdited {
		s.lastRes = nil
	}
	return nil
}

// applyProfileDelta folds one delta's effect on a delegation profile:
// repoints edit in place, add-voter appends (with an optional initial
// delegation at Target), remove-voter remaps ids, and competency/edge
// edits leave the profile alone.
func applyProfileDelta(d *core.DelegationGraph, dl Delta) (*core.DelegationGraph, error) {
	switch dl.Kind {
	case DeltaRepoint:
		if dl.Target == core.NoDelegate {
			if dl.Voter < 0 || dl.Voter >= d.N() {
				return nil, fmt.Errorf("%w: voter %d out of range", core.ErrInvalidDelegation, dl.Voter)
			}
			d.Delegate[dl.Voter] = core.NoDelegate
		} else if err := d.SetDelegate(dl.Voter, dl.Target); err != nil {
			return nil, err
		}
	case DeltaAddVoter:
		d.Delegate = append(d.Delegate, core.NoDelegate)
		if d.Abstained != nil {
			d.Abstained = append(d.Abstained, false)
		}
		if dl.Target != core.NoDelegate {
			if err := d.SetDelegate(d.N()-1, dl.Target); err != nil {
				return nil, err
			}
		}
	case DeltaRemoveVoter:
		d = removeVoterFromDelegation(d, dl.Voter)
	}
	return d, nil
}

// PreviewDeltas applies deltas to an instance and delegation profile
// without any plan or retained-tree work: the same per-delta validation
// and profile remapping Scenario.ApplyDelta performs, minus the
// evaluation state. Serving layers use it to validate a delta list — and
// resolve the post-delta profile for cycle rejection — before paying for
// admission. The inputs are never mutated.
func PreviewDeltas(in *core.Instance, d *core.DelegationGraph, deltas ...Delta) (*core.Instance, *core.DelegationGraph, error) {
	if d.N() != in.N() {
		return nil, nil, fmt.Errorf("%w: delegation over %d voters for instance of %d", core.ErrInvalidDelegation, d.N(), in.N())
	}
	out := copyDelegation(d)
	for _, dl := range deltas {
		if dl.Kind != DeltaRepoint {
			in2, err := applyInstanceDeltas(in, []Delta{dl})
			if err != nil {
				return nil, nil, err
			}
			if in2.N() == 0 {
				return nil, nil, ErrNoVoters
			}
			in = in2
		}
		d2, err := applyProfileDelta(out, dl)
		if err != nil {
			return nil, nil, err
		}
		out = d2
	}
	return in, out, nil
}

// removeVoterFromDelegation drops voter v: ids above v shift down, and
// delegations onto v become direct.
func removeVoterFromDelegation(d *core.DelegationGraph, v int) *core.DelegationGraph {
	out := &core.DelegationGraph{Delegate: make([]int, 0, d.N()-1)}
	if d.Abstained != nil {
		out.Abstained = make([]bool, 0, d.N()-1)
	}
	for i, t := range d.Delegate {
		if i == v {
			continue
		}
		switch {
		case t == v:
			t = core.NoDelegate
		case t > v:
			t--
		}
		out.Delegate = append(out.Delegate, t)
		if d.Abstained != nil {
			out.Abstained = append(out.Abstained, d.Abstained[i])
		}
	}
	return out
}

// Score resolves the profile and returns P^M exactly — bit-identical to
// ResolutionProbabilityExact on the same instance and profile — patching
// the retained tree with whatever changed since the last Score.
func (s *Scenario) Score() (float64, error) {
	if s.pmSet {
		return s.pm, nil
	}
	res := s.lastRes
	var err error
	if res == nil {
		if res, err = s.rv.Resolve(s.d); err != nil {
			return 0, err
		}
		s.lastRes = res
	}
	s.res = resolutionSummary{
		sinks:        len(res.Sinks),
		maxWeight:    res.MaxWeight,
		totalWeight:  res.TotalWeight,
		delegators:   res.Delegators,
		longestChain: res.LongestChain,
	}
	// The same canonical multiset every exact scoring path uses; the tree
	// then matches ResolutionProbabilityExact byte for byte (empty multiset
	// included: the all-abstained PMF is the point mass at zero, whose
	// strict majority probability is 0, the cached path's early return).
	voters := resolutionVoters(s.plan.Instance(), res, s.ws)
	if s.tree == nil {
		if s.tree, err = prob.NewDeltaTree(voters); err != nil {
			return 0, err
		}
	} else if err = s.tree.Update(voters); err != nil {
		return 0, err
	}
	s.pm = s.tree.ProbCorrectDecision()
	s.pmSet = true
	return s.pm, nil
}

// PD returns the instance's exact P^D through the scenario's own retained
// tree, at every n. Bit-identical to DirectProbabilityExact.
func (s *Scenario) PD() (float64, error) {
	in := s.plan.Instance()
	if in.N() == 0 {
		return 0, ErrNoVoters
	}
	if v, ok := pdCacheGet(in); ok {
		cDirectHits.Inc()
		return v, nil
	}
	cDirectMisses.Inc()
	voters := competencyVoters(in, s.ws.VoterBuffer(in.N()))
	var err error
	if s.pdTree == nil {
		if s.pdTree, err = prob.NewDeltaTree(voters); err != nil {
			return 0, err
		}
	} else if err = s.pdTree.Update(voters); err != nil {
		return 0, err
	}
	v := s.pdTree.ProbCorrectDecision()
	pdCachePut(in, v)
	return v, nil
}

// Structural accessors for the last scored resolution (valid after Score).

// Sinks returns the sink count of the last scored resolution.
func (s *Scenario) Sinks() int { return s.res.sinks }

// MaxWeight returns the largest sink weight of the last scored resolution.
func (s *Scenario) MaxWeight() int { return s.res.maxWeight }

// TotalWeight returns the total sink weight of the last scored resolution.
func (s *Scenario) TotalWeight() int { return s.res.totalWeight }

// Delegators returns the delegator count of the last scored resolution.
func (s *Scenario) Delegators() int { return s.res.delegators }

// LongestChain returns the longest delegation chain of the last scored
// resolution.
func (s *Scenario) LongestChain() int { return s.res.longestChain }

// TreeStats returns the retained P^M tree's deterministic counters (zero
// before the first Score).
func (s *Scenario) TreeStats() prob.DeltaTreeStats {
	if s.tree == nil {
		return prob.DeltaTreeStats{}
	}
	return s.tree.Stats()
}
