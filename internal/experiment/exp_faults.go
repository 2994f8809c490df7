package experiment

import (
	"context"
	"fmt"
	"math"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/fault"
	"liquid/internal/graph"
	"liquid/internal/localsim"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// The R-series experiments quantify robustness: how much of the paper's
// do-no-harm guarantee survives when voters fail. R1 works at the election
// level (sink unavailability and abstention repaired by recovery policies,
// scored by the exact engine); R2 works at the protocol level (crash-stop
// nodes and partitions injected into the reliable convergecast).

// faultTopo is one topology/mechanism pairing for the robustness sweeps,
// mirroring the Theorem 2/3/4 settings.
type faultTopo struct {
	name  string
	build func(n int, s *rng.Stream) (graph.Topology, error)
	mech  func(n int) mechanism.Mechanism
}

func faultTopologies() []faultTopo {
	return []faultTopo{
		{
			name:  "K_n",
			build: func(n int, _ *rng.Stream) (graph.Topology, error) { return graph.NewComplete(n), nil },
			mech: func(n int) mechanism.Mechanism {
				j := int(math.Ceil(math.Cbrt(float64(n))))
				return mechanism.ApprovalThreshold{Alpha: 0.05, Threshold: mechanism.ConstantThreshold(j)}
			},
		},
		{
			name: "Rand(n,16)",
			build: func(n int, s *rng.Stream) (graph.Topology, error) {
				return graph.RandomRegular(n, 16, s)
			},
			mech: func(n int) mechanism.Mechanism {
				return mechanism.ApprovalThreshold{Alpha: 0.05, Threshold: mechanism.ConstantThreshold(2)}
			},
		},
		{
			name: "bounded-deg",
			build: func(n int, s *rng.Stream) (graph.Topology, error) {
				maxDeg := int(math.Ceil(math.Pow(float64(n), 0.45)))
				return graph.RandomBoundedDegree(n, maxDeg, 8*n, s)
			},
			mech: func(n int) mechanism.Mechanism {
				return mechanism.ApprovalThreshold{Alpha: 0.05}
			},
		},
	}
}

// r1Regime is one competency range of the availability-fault sweep. The
// two regimes separate the two faces of recovery: when delegators are
// barely better than coin flips, a recovered direct vote adds variance and
// almost no signal (the paper's variance argument, in reverse), so
// dropping stranded weight matches recovering it; when every voter is
// solidly competent, recovered weight carries real signal and the
// recovery policies dominate lose-weight.
type r1Regime struct {
	name     string
	pLo, pHi float64
}

// runR1 sweeps sink-unavailability (and one abstention point) across the
// three recovery policies in both regimes. The election seed deliberately
// excludes the policy, so at a fixed (regime, topology, rate) all three
// policies repair the same mechanism realizations and the same fault
// draws: the policy comparison is paired (common random numbers), and at
// zero faults the three policies must agree bit-for-bit with each other
// and with the fault-free election engine.
func runR1(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(301, 151)
	reps := cfg.scaleInt(32, 8)
	downRates := []float64{0, 0.10, 0.20, 0.30}
	maxDown := downRates[len(downRates)-1]
	policies := fault.Policies()
	regimes := []r1Regime{
		{name: "coin-flip", pLo: 0.50, pHi: 0.58},
		{name: "competent", pLo: 0.55, pHi: 0.63},
	}

	root := rng.New(cfg.Seed)
	var tables []*report.Table
	var checks []Check
	// edges[regime] sums (policy PM - lose-weight PM) at the heaviest
	// rate across topologies; hurts[regime] sums lose-weight degradation.
	edges := map[string]map[fault.Policy]float64{}
	hurts := map[string]float64{}
	meanDownOK := true
	meanDownDetail := ""
	abstainDelta := 0.0

	for _, reg := range regimes {
		tab := report.NewTable(
			fmt.Sprintf("R1: availability faults, %s regime (n=%d, p in [%g, %g], %d reps)", reg.name, n, reg.pLo, reg.pHi, reps),
			"topology", "policy", "down", "abstain", "P^D", "P^M", "std err", "loss", "lost units", "fellback", "redelegated")
		tables = append(tables, tab)
		addRow := func(tp faultTopo, pol fault.Policy, down, abstain float64, res *fault.ElectionResult) {
			tab.AddRow(tp.name, pol.String(), report.F2(down), report.F2(abstain),
				report.F(res.PD), report.F(res.PM), report.F(res.PMStdErr), report.F(res.PD-res.PM),
				report.F2(res.MeanLost), report.F2(res.MeanFellBack), report.F2(res.MeanRedelegated))
		}
		edges[reg.name] = map[fault.Policy]float64{}

		for _, tp := range faultTopologies() {
			top, err := tp.build(n, root.DeriveString("top:"+reg.name+":"+tp.name))
			if err != nil {
				return nil, err
			}
			in, err := uniformInstance(top, reg.pLo, reg.pHi, root.DeriveString("inst:"+reg.name+":"+tp.name))
			if err != nil {
				return nil, err
			}
			mech := tp.mech(n)
			pmAt := map[float64]map[fault.Policy]float64{}

			// Fault-free baseline from the standard election engine, at
			// the same seed the zero-fault row uses.
			base, err := election.EvaluateMechanism(ctx, in, mech, election.Options{
				Replications: reps,
				Seed:         rng.Derive(cfg.Seed, "R1", reg.name, tp.name, "down=0"),
				Workers:      cfg.Workers,
			})
			if err != nil {
				return nil, err
			}

			// The whole rate x policy grid (plus the abstention point in the
			// coin-flip regime) is one sweep sharing an exact-score cache.
			// The per-point seeds are derived exactly as the old per-point
			// calls derived them — in particular they still exclude the
			// policy, so the CRN pairing and the zero-fault bit-identity
			// checks below are untouched.
			var points []fault.SweepPoint
			for _, q := range downRates {
				for _, pol := range policies {
					points = append(points, fault.SweepPoint{
						Mechanism: mech,
						Opts: fault.ElectionOptions{
							Options: election.Options{
								Replications: reps,
								Seed:         rng.Derive(cfg.Seed, "R1", reg.name, tp.name, fmt.Sprintf("down=%g", q)),
								Workers:      cfg.Workers,
							},
							DownRate: q,
							Policy:   pol,
							Alpha:    0.05,
						},
					})
				}
			}
			if reg.name == "coin-flip" {
				// One abstention point on top of availability faults,
				// fallback policy: withdrawing units must not raise P^M.
				points = append(points, fault.SweepPoint{
					Mechanism: mech,
					Opts: fault.ElectionOptions{
						Options: election.Options{
							Replications: reps,
							Seed:         rng.Derive(cfg.Seed, "R1", reg.name, tp.name, "down=0.1+abstain"),
							Workers:      cfg.Workers,
						},
						DownRate:    0.10,
						AbstainRate: 0.10,
						Policy:      fault.FallbackToDirect,
						Alpha:       0.05,
					},
				})
			}
			sweep, err := fault.EvaluateSweep(ctx, in, points)
			if err != nil {
				return nil, err
			}

			k := 0
			for _, q := range downRates {
				pmAt[q] = map[fault.Policy]float64{}
				for _, pol := range policies {
					res := sweep[k]
					k++
					addRow(tp, pol, q, 0, res)
					pmAt[q][pol] = res.PM
					// The injected fault footprint should match the
					// configured rate within Monte-Carlo noise.
					want := q * float64(n)
					slack := 5 * math.Sqrt(float64(n)*q*(1-q)/float64(reps))
					if math.Abs(res.MeanDown-want) > slack+1e-9 {
						meanDownOK = false
						meanDownDetail = fmt.Sprintf("%s/%s down=%g: mean down %.2f, want %.2f±%.2f",
							reg.name, tp.name, q, res.MeanDown, want, slack)
					}
				}
			}
			if reg.name == "coin-flip" {
				abst := sweep[k]
				addRow(tp, fault.FallbackToDirect, 0.10, 0.10, abst)
				abstainDelta += abst.PM - pmAt[0.10][fault.FallbackToDirect]
			}

			zero := pmAt[0]
			checks = append(checks,
				check(fmt.Sprintf("%s/%s: zero-fault P^M bit-identical to the election engine", reg.name, tp.name),
					zero[fault.LoseWeight] == base.PM,
					"faults engine %.6f vs election engine %.6f", zero[fault.LoseWeight], base.PM),
				check(fmt.Sprintf("%s/%s: policies agree bit-for-bit at zero faults", reg.name, tp.name),
					zero[fault.LoseWeight] == zero[fault.FallbackToDirect] &&
						zero[fault.LoseWeight] == zero[fault.Redelegate],
					"lose-weight %.6f, fallback %.6f, redelegate %.6f",
					zero[fault.LoseWeight], zero[fault.FallbackToDirect], zero[fault.Redelegate]),
			)
			hurts[reg.name] += zero[fault.LoseWeight] - pmAt[maxDown][fault.LoseWeight]
			for _, pol := range []fault.Policy{fault.FallbackToDirect, fault.Redelegate} {
				edges[reg.name][pol] += pmAt[maxDown][pol] - pmAt[maxDown][fault.LoseWeight]
			}
		}
	}

	checks = append(checks,
		check("lose-weight: availability faults degrade P^M in both regimes",
			hurts["coin-flip"] > 0 && hurts["competent"] > 0,
			"summed degradation at down=%.2f: coin-flip %.4f, competent %.4f",
			maxDown, hurts["coin-flip"], hurts["competent"]),
		check("coin-flip regime: recovering near-1/2 voters is worth no more than dropping them",
			math.Abs(edges["coin-flip"][fault.FallbackToDirect]) <= 0.05,
			"summed fallback edge over lose-weight: %.4f", edges["coin-flip"][fault.FallbackToDirect]),
		check("competent regime: fallback-to-direct dominates lose-weight",
			edges["competent"][fault.FallbackToDirect] > 0,
			"summed edge over lose-weight: %.4f", edges["competent"][fault.FallbackToDirect]),
		check("redelegation stays within a narrow band of lose-weight (concentration offsets recovered signal)",
			math.Abs(edges["coin-flip"][fault.Redelegate]) <= 0.05 &&
				math.Abs(edges["competent"][fault.Redelegate]) <= 0.05,
			"summed edges over lose-weight: coin-flip %.4f, competent %.4f",
			edges["coin-flip"][fault.Redelegate], edges["competent"][fault.Redelegate]),
		check("abstention does not raise P^M", abstainDelta <= 0.01,
			"summed P^M shift from 10%% abstention: %.4f", abstainDelta),
		check("fault injection hits the configured rate", meanDownOK, "%s", meanDownDetail),
	)

	return &Outcome{
		Replications: reps,
		Tables:       tables,
		Checks:       checks,
	}, nil
}

// resolutionFromFaultReport turns the surviving weights of a faulty
// convergecast into a core.Resolution so the exact engine can score the
// election the failed protocol actually produced.
func resolutionFromFaultReport(rep *localsim.FaultReport) *core.Resolution {
	res := &core.Resolution{Weight: rep.Weights, TotalWeight: rep.LiveTotal}
	for v, w := range rep.Weights {
		if w > 0 {
			res.Sinks = append(res.Sinks, v)
			if w > res.MaxWeight {
				res.MaxWeight = w
			}
		}
	}
	return res
}

// r2Cell is one fault configuration of the protocol-level sweep.
type r2Cell struct {
	name   string
	params fault.PlanParams
	// benign cells (no faults, or a partition healed well inside the
	// liveness timeout) must reproduce the fault-free protocol exactly.
	benign bool
}

// runR2 injects crash-stop faults, partitions, duplication and reordering
// into the reliable convergecast and accounts for every weight unit: live
// plus trapped must equal n at every point, benign plans must reproduce
// the fault-free run bit-for-bit, and the exact engine scores P^M of the
// election each degraded run actually delivered.
func runR2(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(96, 48)
	trials := cfg.scaleInt(5, 3)
	const (
		alpha    = 0.03
		lossRate = 0.2
		pLo, pHi = 0.50, 0.58
	)
	cells := []r2Cell{
		{name: "none", params: fault.PlanParams{}, benign: true},
		{name: "crash=0.10", params: fault.PlanParams{CrashRate: 0.10, CrashWindow: 15}},
		{name: "crash=0.30", params: fault.PlanParams{CrashRate: 0.30, CrashWindow: 15}},
		{name: "part n/4 healed", params: fault.PlanParams{PartitionSize: n / 4, PartitionFrom: 2, PartitionHeal: 12}, benign: true},
		{name: "part n/4 perm", params: fault.PlanParams{PartitionSize: n / 4, PartitionFrom: 2, PartitionHeal: 2}},
		{name: "crash=0.10+dup+reorder", params: fault.PlanParams{CrashRate: 0.10, CrashWindow: 15, DupRate: 0.2, ReorderRate: 0.5}},
	}

	root := rng.New(cfg.Seed)
	tab := report.NewTable(
		fmt.Sprintf("R2: reliable convergecast under crash faults and partitions (n=%d, loss=%.2f, %d trials)", n, lossRate, trials),
		"topology", "faults", "live", "trapped", "fellback", "reconciled", "rounds", "msgs", "dup", "P^M|faults")

	conserved := true
	conservedDetail := ""
	benignExact := true
	benignDetail := ""
	// Shared exact-scoring scratch and memo across cells and trials; cached
	// scores are bit-identical to recomputation (see election/cache.go).
	ws := prob.NewWorkspace()
	scores := election.NewScoreCache()
	trappedByCell := map[string]int{}
	fellBackByCell := map[string]int{}
	duplicatedByCell := map[string]int{}
	pmByCell := map[string]float64{}

	for _, tp := range faultTopologies() {
		top, err := tp.build(n, root.DeriveString("top:"+tp.name))
		if err != nil {
			return nil, err
		}
		in, err := uniformInstance(top, pLo, pHi, root.DeriveString("inst:"+tp.name))
		if err != nil {
			return nil, err
		}
		for _, cell := range cells {
			var live, trapped, fellBack, reconciled, rounds, msgs, dup int
			var pmSum float64
			for t := 0; t < trials; t++ {
				// The trial seed deliberately excludes the cell name: every
				// cell degrades the same (topology, trial) realization, so
				// cell-to-cell comparisons (crash=0.30 vs none) are paired
				// by common random numbers rather than drowned in
				// realization noise.
				seed := rng.Derive(cfg.Seed, "R2", tp.name, fmt.Sprintf("trial=%d", t))
				plan, err := fault.SamplePlan(n, cell.params, rng.New(rng.Derive(seed, "plan")))
				if err != nil {
					return nil, err
				}
				runSeed := rng.Derive(seed, "run")
				rep, err := localsim.RunReliableDelegationFaulty(ctx, in, alpha, localsim.ThresholdRule(nil), runSeed,
					localsim.ReliableFaultOptions{LossRate: lossRate, Faults: plan})
				if err != nil {
					return nil, err
				}
				if rep.LiveTotal+rep.TrappedTotal != n {
					conserved = false
					conservedDetail = fmt.Sprintf("%s %s trial %d: live %d + trapped %d != %d",
						tp.name, cell.name, t, rep.LiveTotal, rep.TrappedTotal, n)
				}
				if cell.benign {
					// The same seed through the fault-free runner must give
					// the same weights: benign plans do no harm, exactly.
					plain, err := localsim.RunReliableDelegation(ctx, in, alpha, localsim.ThresholdRule(nil), runSeed, lossRate)
					if err != nil {
						return nil, err
					}
					same := rep.TrappedTotal == 0 && len(rep.FellBack) == 0
					for v := 0; same && v < n; v++ {
						same = rep.Weights[v] == plain.Weights[v]
					}
					if !same {
						benignExact = false
						benignDetail = fmt.Sprintf("%s %s trial %d diverged from the fault-free run", tp.name, cell.name, t)
					}
				}
				pm, err := election.ResolutionProbabilityExactCached(in, resolutionFromFaultReport(rep), ws, scores)
				if err != nil {
					return nil, err
				}
				pmSum += pm
				live += rep.LiveTotal
				trapped += rep.TrappedTotal
				fellBack += len(rep.FellBack)
				reconciled += rep.Reconciled
				rounds += rep.Rounds
				msgs += rep.Messages
				dup += rep.Duplicated
			}
			ft := float64(trials)
			tab.AddRow(tp.name, cell.name,
				report.F2(float64(live)/ft), report.F2(float64(trapped)/ft),
				report.F2(float64(fellBack)/ft), report.F2(float64(reconciled)/ft),
				report.F2(float64(rounds)/ft), report.Itoa(msgs/trials),
				report.F2(float64(dup)/ft), report.F(pmSum/ft))
			trappedByCell[cell.name] += trapped
			fellBackByCell[cell.name] += fellBack
			duplicatedByCell[cell.name] += dup
			pmByCell[cell.name] += pmSum / ft
		}
	}

	checks := []Check{
		check("conservation: live + trapped == n at every point", conserved, "%s", conservedDetail),
		check("zero-fault and healed-partition plans reproduce the fault-free run exactly", benignExact, "%s", benignDetail),
		check("no weight is trapped without crashes", trappedByCell["none"] == 0 && trappedByCell["part n/4 perm"] == 0,
			"trapped: none %d, permanent partition %d", trappedByCell["none"], trappedByCell["part n/4 perm"]),
		check("trapped weight grows with the crash rate",
			trappedByCell["crash=0.10"] > 0 && trappedByCell["crash=0.30"] >= trappedByCell["crash=0.10"],
			"trapped: crash=0.10 %d, crash=0.30 %d", trappedByCell["crash=0.10"], trappedByCell["crash=0.30"]),
		check("a permanent partition forces liveness fallbacks", fellBackByCell["part n/4 perm"] > 0,
			"fallbacks under the permanent partition: %d", fellBackByCell["part n/4 perm"]),
		check("duplication fault actually duplicates", duplicatedByCell["crash=0.10+dup+reorder"] > 0,
			"duplicated deliveries: %d", duplicatedByCell["crash=0.10+dup+reorder"]),
		check("crashes do harm to P^M", pmByCell["crash=0.30"] <= pmByCell["none"]+0.01,
			"summed P^M: crash=0.30 %.4f vs none %.4f", pmByCell["crash=0.30"], pmByCell["none"]),
	}

	return &Outcome{
		Replications: trials,
		Tables:       []*report.Table{tab},
		Checks:       checks,
	}, nil
}
