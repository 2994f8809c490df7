package election

// Delta application (DESIGN.md §15). A Plan canonicalises one instance;
// evolving-graph workloads — delegation churn, BA growth, best-response
// dynamics, liquidd what-if queries — evaluate chains of elections that
// differ from their predecessor by a handful of voters. A delta edits the
// instance (a competency, a voter, an edge) or the delegation profile (a
// repoint), and the edited election is scored by the memoized exact
// kernels, exactly as an explicit one would be:
//
//   - ApplyDelta derives the next plan sharing the receiver's ScoreCache:
//     its values are pure functions of canonical (weight, p) multisets,
//     independent of which instance produced them, so every multiset the
//     mutated instance re-realizes is a hit;
//   - the exact P^D goes through the process-wide memo keyed by competency
//     content, so an edit that returns to a multiset seen before is a hit;
//   - nothing else is carried between edits.
//
// Scenario is the delegation-level counterpart: it pins one plan and one
// delegation profile and scores the profile as it is edited. Dynamics
// (best-response sweeps, churn) sit on Scenario.
//
// The correctness gate for everything in this file is bit-identity: a
// derived plan must be indistinguishable, byte for byte, from a fresh
// NewPlan on the mutated instance, and a Scenario score must equal
// ResolutionProbabilityExact on the same resolution. Both hold because the
// edited election is scored by the same kernels, in the same canonical
// voter orders, as a from-scratch one.

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

// ApplyDelta derives the plan of the mutated instance. The derived plan is
// bit-identical in every evaluation to NewPlan on the same mutated
// instance — EvaluateSweep, P^D, the lot — and shares the receiver's score
// cache, whose values are instance-independent pure functions. Repoint
// deltas are rejected here; apply them through a Scenario.
func (p *Plan) ApplyDelta(deltas ...Delta) (*Plan, error) {
	in2, err := applyInstanceDeltas(p.in, deltas)
	if err != nil {
		return nil, err
	}
	if in2.N() == 0 {
		return nil, ErrNoVoters
	}
	return p.derive(in2), nil
}

// derive returns the plan of in with the receiver's options and score
// cache.
func (p *Plan) derive(in *core.Instance) *Plan {
	return &Plan{in: in, opts: p.opts, scores: p.scores}
}

// Scenario pins one plan and one delegation profile and scores the profile
// as it is edited. It owns its resolver and workspace — a Scenario is
// single-threaded scratch, not a shared artifact — and its plan reference
// advances through derived plans as instance-level deltas arrive. It keeps
// no evaluation state of its own: Score resolves and scores the current
// profile through the plan's ScoreCache every time.
type Scenario struct {
	plan *Plan
	d    *core.DelegationGraph
	rv   core.Resolver
	ws   *prob.Workspace
}

// NewScenario pins plan's current instance and a copy of d.
func NewScenario(plan *Plan, d *core.DelegationGraph) (*Scenario, error) {
	if d.N() != plan.Instance().N() {
		return nil, fmt.Errorf("%w: delegation over %d voters for instance of %d", core.ErrInvalidDelegation, d.N(), plan.Instance().N())
	}
	return &Scenario{plan: plan, d: copyDelegation(d), ws: prob.NewWorkspace()}, nil
}

func copyDelegation(d *core.DelegationGraph) *core.DelegationGraph {
	c := &core.DelegationGraph{Delegate: append([]int(nil), d.Delegate...)}
	if d.Abstained != nil {
		c.Abstained = append([]bool(nil), d.Abstained...)
	}
	return c
}

// Delegation returns the scenario's profile. It is the scenario's own
// mutable copy: callers may read it freely but should route edits through
// ApplyDelta/SetDelegate, which validate them.
func (s *Scenario) Delegation() *core.DelegationGraph { return s.d }

// SetDelegate re-points voter i to j (core.NoDelegate for direct). It is
// the primitive behind DeltaRepoint, exposed directly for tight loops
// (best-response sweeps try many candidate targets per voter).
func (s *Scenario) SetDelegate(i, j int) error {
	if j == core.NoDelegate {
		if i < 0 || i >= s.d.N() {
			return fmt.Errorf("%w: voter %d out of range", core.ErrInvalidDelegation, i)
		}
		s.d.Delegate[i] = core.NoDelegate
	} else if err := s.d.SetDelegate(i, j); err != nil {
		return err
	}
	return nil
}

// SetDelegation replaces the whole profile (the scenario keeps its own
// copy).
func (s *Scenario) SetDelegation(d *core.DelegationGraph) error {
	if d.N() != s.plan.Instance().N() {
		return fmt.Errorf("%w: delegation over %d voters for instance of %d", core.ErrInvalidDelegation, d.N(), s.plan.Instance().N())
	}
	s.d = copyDelegation(d)
	return nil
}

// ApplyDelta applies deltas in order: repoints edit the profile, and
// instance-level deltas advance the plan chain and remap the profile where
// ids shift. The deltas are staged through PreviewDeltas, so on error the
// scenario is left unchanged.
func (s *Scenario) ApplyDelta(deltas ...Delta) error {
	in, d, err := PreviewDeltas(s.plan.Instance(), s.d, deltas...)
	if err != nil {
		return err
	}
	if in != s.plan.Instance() {
		s.plan = s.plan.derive(in)
	}
	s.d = d
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
// without any plan: the per-delta validation and profile remapping that
// Scenario.ApplyDelta stages through. Serving layers use it to validate a
// delta list — and resolve the post-delta profile for cycle rejection —
// before paying for admission. The inputs are never mutated.
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

// Score resolves the profile and returns P^M exactly through the memoized
// kernel and the plan's shared score cache — bit-identical to
// ResolutionProbabilityExact on the same instance and profile.
func (s *Scenario) Score() (float64, error) {
	res, err := s.rv.Resolve(s.d, s.plan.in.CompetencyOrder())
	if err != nil {
		return 0, err
	}
	return ResolutionProbabilityExactCached(s.plan.in, res, s.ws, s.plan.scores)
}

// PD returns the instance's exact P^D at every n: DirectProbabilityExact,
// memoized by competency content.
func (s *Scenario) PD() (float64, error) {
	return DirectProbabilityExact(s.plan.in)
}
