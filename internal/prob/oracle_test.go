package prob

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"liquid/internal/rng"
)

// The one oracle for the exact kernels. Every case is a voter set; its
// reference PMF is the enumeration of all 2^m outcomes while m <=
// oracleEnumMax, and PMFNaive above that. checkOracle holds Workspace.PMF to
// the reference index by index, in total variation and in majority mass,
// and to bit-identity wherever the engine promises it: fork-join budgets, a
// root that stays a DP leaf, and KernelMajority on unit weights.
// TestWorkspaceReuse adds the fourth promise, a reused workspace, over the
// whole table.

// oracleEnumMax is the largest voter set the oracle enumerates.
const oracleEnumMax = 16

// oracleCase is one voter set, with its PMF and majority mass when they are
// known in closed form (nil and NaN otherwise).
type oracleCase struct {
	name     string
	voters   []WeightedVoter
	pmf      []float64
	majority float64
}

// enumeratePMF sums the probability of each of the 2^m outcomes of voters
// into the PMF of their correct weight.
func enumeratePMF(voters []WeightedVoter) []float64 {
	total := 0
	for _, v := range voters {
		total += v.Weight
	}
	acc := make([]Accumulator, total+1)
	for mask := 0; mask < 1<<len(voters); mask++ {
		p, w := 1.0, 0
		for i, v := range voters {
			if mask&(1<<i) != 0 {
				p *= v.P
				w += v.Weight
			} else {
				p *= 1 - v.P
			}
		}
		acc[w].Add(p)
	}
	f := make([]float64, total+1)
	for i := range acc {
		f[i] = acc[i].Sum()
	}
	return f
}

// oracleReference returns the reference PMF of voters and the tolerance the
// engine is held to against it: on each index, in total variation and in
// majority mass.
func oracleReference(voters []WeightedVoter) ([]float64, float64, error) {
	if len(voters) <= oracleEnumMax {
		return enumeratePMF(voters), 1e-12, nil
	}
	f, err := PMFNaive(voters)
	return f, FFTTierErrorBudget, err
}

// checkOracle runs one case through every check, returning the first
// failure.
func checkOracle(c oracleCase) error {
	want, tol, err := oracleReference(c.voters)
	if err != nil {
		return err
	}
	ws := NewWorkspace()
	f, err := ws.PMF(c.voters)
	if err != nil {
		return err
	}
	got := slices.Clone(f)
	if len(got) != len(want) {
		return fmt.Errorf("PMF has %d values, reference %d", len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= tol) {
			return fmt.Errorf("f[%d] = %v, reference %v (tolerance %g)", i, got[i], want[i], tol)
		}
		if c.pmf != nil && !(math.Abs(got[i]-c.pmf[i]) <= tol) {
			return fmt.Errorf("f[%d] = %v, closed form %v", i, got[i], c.pmf[i])
		}
	}
	if tv := TotalVariation(got, want); !(tv <= tol) {
		return fmt.Errorf("total variation %g from the reference (tolerance %g)", tv, tol)
	}
	if s := Sum(got); math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("PMF sums to %v", s)
	}
	m := MajorityMass(got)
	if ref := MajorityMass(want); !(math.Abs(m-ref) <= tol) {
		return fmt.Errorf("majority mass %v, reference %v (tolerance %g)", m, ref, tol)
	}
	if !math.IsNaN(c.majority) && !(math.Abs(m-c.majority) <= tol) {
		return fmt.Errorf("majority mass %v, want %v", m, c.majority)
	}

	// Bit-identity where the engine promises it.
	for _, workers := range []int{2, 4, 16} {
		forked, err := NewWorkspace().pmf(context.Background(), c.voters, workers)
		if err != nil {
			return err
		}
		if !equalBits(got, forked) {
			return fmt.Errorf("a fork budget of %d differs from sequential", workers)
		}
	}
	if _, leaf := dcSplit(ws.prefixWeights(c.voters), 0, len(c.voters)); leaf {
		naive, err := PMFNaive(c.voters)
		if err != nil {
			return err
		}
		if !equalBits(got, naive) {
			return fmt.Errorf("the root is a DP leaf, yet PMFNaive differs")
		}
	}
	if !slices.ContainsFunc(c.voters, func(v WeightedVoter) bool { return v.Weight != 1 }) {
		ps := make([]float64, len(c.voters))
		for i, v := range c.voters {
			ps[i] = v.P
		}
		slices.Sort(ps)
		f, err := ws.PMF(ws.UnitVoters(ps))
		if err != nil {
			return err
		}
		want := MajorityMass(f)
		for _, workers := range []int{1, 4} {
			got, err := KernelMajority(context.Background(), slices.Clone(ps), workers)
			if err != nil {
				return err
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("KernelMajority at %d workers = %v, MajorityMass of the sorted PMF %v", workers, got, want)
			}
		}
	}
	return nil
}

// units returns one weight-1 voter per probability.
func units(ps ...float64) []WeightedVoter { return appendUnitVoters(nil, ps) }

// pointMass is the PMF of a sum that is certainly w out of total.
func pointMass(w, total int) []float64 {
	f := make([]float64, total+1)
	f[w] = 1
	return f
}

// binomialPMF is the Binomial(n, p) mass at k.
func binomialPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}

// fixedCases are small hand-picked sets: those with known distributions and
// majorities, and a few without, held to enumeration alone.
func fixedCases() []oracleCase {
	binom := make([]float64, 11)
	var upper Accumulator
	for k := range binom {
		binom[k] = binomialPMF(10, k, 0.3)
		if k > 5 {
			upper.Add(binom[k])
		}
	}
	unknown := math.NaN()
	return []oracleCase{
		{"empty", nil, []float64{1}, 0},
		{"single-voter", units(0.7), []float64{1 - 0.7, 0.7}, 0.7},
		{"single-weighted-voter", []WeightedVoter{{17, 0.3}}, append(append([]float64{1 - 0.3}, make([]float64, 16)...), 0.3), 0.3},
		{"deterministic", units(1, 1, 0), pointMass(2, 3), 1},
		{"unit-tie", units(1, 1, 0, 0), pointMass(2, 4), 0},
		{"weighted-tie", []WeightedVoter{{2, 1}, {1, 0}, {1, 0}}, pointMass(2, 4), 0},
		{"strict-win", []WeightedVoter{{3, 1}, {2, 0}}, pointMass(3, 5), 1},
		{"two-fair-coins", units(0.5, 0.5), []float64{0.25, 0.5, 0.25}, 0.25},
		{"binomial(10,0.3)", units(slices.Repeat([]float64{0.3}, 10)...), binom, upper.Sum()},
		{"dictator", []WeightedVoter{{9, 2.0 / 3}}, append(append([]float64{1 - 2.0/3}, make([]float64, 8)...), 2.0/3), 2.0 / 3},
		{"sums/unit", units(0.1, 0.9, 0.5, 0.33, 0.67, 1, 0), nil, unknown},
		{"sums/weighted", []WeightedVoter{{3, 0.4}, {5, 0.7}, {1, 0.99}, {2, 0.01}}, nil, unknown},
		{"monte-carlo/unit", units(0.9, 0.2, 0.55, 0.71, 0.33, 0.44, 0.66), nil, unknown},
		{"monte-carlo/weighted", []WeightedVoter{{4, 0.62}, {1, 0.3}, {2, 0.85}, {3, 0.5}, {1, 0.11}}, nil, unknown},
		{"brute-force/0", units(0.5), nil, unknown},
		{"brute-force/1", units(0.2, 0.9), nil, unknown},
		{"brute-force/2", []WeightedVoter{{3, 0.4}, {2, 0.7}, {1, 0.1}}, nil, unknown},
		{"brute-force/3", []WeightedVoter{{2, 0.5}, {2, 0.5}, {1, 0.5}, {4, 0.31}}, nil, unknown},
	}
}

// enumerableCases are 20 random sets of 1 to oracleEnumMax voters named
// prefix/NN, with weights in [1, maxW] and one p in five drawn from {0, 1}.
func enumerableCases(prefix string, maxW int) []oracleCase {
	s := rng.New(rng.Derive(25, "oracle", prefix))
	cases := make([]oracleCase, 20)
	for i := range cases {
		voters := make([]WeightedVoter, 1+s.IntN(oracleEnumMax))
		for j := range voters {
			p := s.Float64()
			if s.IntN(5) == 0 {
				p = float64(s.IntN(2))
			}
			voters[j] = WeightedVoter{Weight: 1 + s.IntN(maxW), P: p}
		}
		cases[i] = oracleCase{fmt.Sprintf("%s/%02d", prefix, i), voters, nil, math.NaN()}
	}
	return cases
}

// unitCases are random unit-weight sets from one voter to several hundred.
func unitCases() []oracleCase {
	s := rng.New(rng.Derive(25, "oracle", "unit"))
	var cases []oracleCase
	for _, n := range []int{1, 2, 63, 256, 701} {
		cases = append(cases, oracleCase{fmt.Sprintf("unit/n=%d", n), appendUnitVoters(nil, randomPs(n, 0, 1, s)), nil, math.NaN()})
	}
	return cases
}

// randomCases straddle the engine's cost-model branches: sizes around
// dcMinLeaf and the fork threshold, at three weight ranges.
func randomCases() []oracleCase {
	s := rng.New(rng.Derive(25, "oracle", "random"))
	var cases []oracleCase
	for _, maxW := range []int{1, 7, 24} {
		for _, n := range []int{31, 32, 63, 257, 701, 2048, 4097} {
			voters := make([]WeightedVoter, n)
			for i := range voters {
				voters[i] = WeightedVoter{Weight: 1 + s.IntN(maxW), P: s.Float64()}
			}
			cases = append(cases, oracleCase{fmt.Sprintf("random/maxW=%d/n=%d", maxW, n), voters, nil, math.NaN()})
		}
	}
	return cases
}

// pointMassCases have every p in {0, 1}: the correct weight is certain, so
// its PMF and majority are known exactly.
func pointMassCases() []oracleCase {
	s := rng.New(rng.Derive(25, "oracle", "point-mass"))
	var cases []oracleCase
	for i := 0; i < 10; i++ {
		voters := make([]WeightedVoter, 200+s.IntN(400))
		correct, total := 0, 0
		for j := range voters {
			voters[j] = WeightedVoter{Weight: 1 + s.IntN(8), P: float64(s.IntN(2))}
			total += voters[j].Weight
			if voters[j].P == 1 {
				correct += voters[j].Weight
			}
		}
		majority := 0.0
		if 2*correct > total {
			majority = 1
		}
		cases = append(cases, oracleCase{fmt.Sprintf("point-mass/%d", i), voters, pointMass(correct, total), majority})
	}
	return cases
}

// oracleCases is the oracle's whole table.
func oracleCases() []oracleCase {
	return slices.Concat(fixedCases(),
		enumerableCases("enumerable/unit", 1),
		enumerableCases("enumerable/w5", 5),
		enumerableCases("enumerable/w10", 10),
		unitCases(), randomCases(), pointMassCases())
}

// runOracle checks every case whose name starts with prefix, one subtest
// each, and fails if none does.
func runOracle(t *testing.T, prefix string) {
	t.Helper()
	ran := 0
	for _, c := range oracleCases() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		ran++
		t.Run(c.name, func(t *testing.T) {
			if err := checkOracle(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no oracle case is named %q...", prefix)
	}
}

// TestEngineRejectsInvalid: every exact entry point rejects weights below 1
// and probabilities outside [0, 1].
func TestEngineRejectsInvalid(t *testing.T) {
	rejectsUnitInvalid(t)
	rejectsWeightedInvalid(t)
}

// rejectsUnitInvalid: competencies outside [0, 1] on unit weights are
// rejected by PMF, PMFNaive and KernelMajority.
func rejectsUnitInvalid(t *testing.T) {
	t.Helper()
	for _, ps := range [][]float64{{-0.1}, {1.1}, {0.5, math.NaN()}} {
		rejectsVoters(t, units(ps...))
		if _, err := KernelMajority(nil, ps, 1); err == nil {
			t.Errorf("KernelMajority accepted %v", ps)
		}
	}
}

// rejectsWeightedInvalid: weights below 1 and probabilities outside [0, 1]
// in weighted sets are rejected by PMF and PMFNaive.
func rejectsWeightedInvalid(t *testing.T) {
	t.Helper()
	for _, voters := range [][]WeightedVoter{
		{{Weight: 0, P: 0.5}},
		{{Weight: -1, P: 0.5}},
		{{Weight: 1, P: 0.5}, {Weight: 1, P: -0.2}},
		{{Weight: 1, P: 1.2}},
		{{Weight: 2, P: math.NaN()}},
	} {
		rejectsVoters(t, voters)
	}
}

func rejectsVoters(t *testing.T, voters []WeightedVoter) {
	t.Helper()
	if _, err := NewWorkspace().PMF(voters); err == nil {
		t.Errorf("PMF accepted %v", voters)
	}
	if _, err := PMFNaive(voters); err == nil {
		t.Errorf("PMFNaive accepted %v", voters)
	}
}

// TestWorkspaceReuse runs the whole table through one workspace, so the
// arena grows, shrinks and holds every other case's values in turn, and
// requires each PMF to match a fresh workspace's bit for bit.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	for _, c := range oracleCases() {
		fresh, err := NewWorkspace().PMF(c.voters)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := ws.PMF(c.voters)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBits(fresh, reused) {
			t.Fatalf("%s: the reused workspace differs from a fresh one", c.name)
		}
	}
}

// TestBorrowingConstructors: the workspace entry points borrow their inputs
// and return workspace memory, so once warm they allocate nothing.
func TestBorrowingConstructors(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(97)
	ps := randomPs(3000, 0.1, 0.9, s)
	voters := randomVoters(500, 9, s)
	if _, err := ws.PMF(voters); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(){
		"PMF":             func() { _, _ = ws.PMF(voters) },
		"PMF(UnitVoters)": func() { _, _ = ws.PMF(ws.UnitVoters(ps)) },
	} {
		run()
		if a := testing.AllocsPerRun(5, run); a != 0 {
			t.Errorf("%s allocates %v times a call once warm", name, a)
		}
	}
}

// TestMeanVariance pins the unit-weight moments Lemma 4's normal reads
// (SumStats.AddUnits).
func TestMeanVariance(t *testing.T) {
	var st SumStats
	st.AddUnits([]float64{0.2, 0.8, 0.5})
	if got, want := st.Mean(), 1.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := st.Variance(), 0.2*0.8+0.8*0.2+0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

// TestWeightedMeanVariance pins the weighted moments (SumStats.Add).
func TestWeightedMeanVariance(t *testing.T) {
	var st SumStats
	st.Add(2, 0.5)
	st.Add(3, 0.2)
	if got, want := st.Mean(), 2*0.5+3*0.2; math.Abs(got-want) > 1e-15 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := st.Variance(), 4*0.25+9*0.16; math.Abs(got-want) > 1e-15 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

// Each test below runs the oracle on its own part of the table, so every
// case runs exactly once; a case added to the table needs a test here.

func TestPoissonBinomialRejectsInvalid(t *testing.T)  { rejectsUnitInvalid(t) }
func TestWeightedMajorityRejectsInvalid(t *testing.T) { rejectsWeightedInvalid(t) }
func TestPMFMatchesBinomial(t *testing.T)             { runOracle(t, "binomial(10,0.3)") }
func TestDeterministicVoters(t *testing.T)            { runOracle(t, "deterministic") }
func TestProbMajorityTieLoses(t *testing.T)           { runOracle(t, "unit-tie") }
func TestProbMajoritySingleVoter(t *testing.T)        { runOracle(t, "single-voter") }
func TestDictatorWeight(t *testing.T)                 { runOracle(t, "dictator") }
func TestWeightedTieLoses(t *testing.T)               { runOracle(t, "weighted-tie") }
func TestWeightedStrictWin(t *testing.T)              { runOracle(t, "strict-win") }

// TestTieRules: two fair coins tie with mass 1/2 at f[1] and win outright
// with 1/4; A5 reads its four tie rules from exactly these two masses.
func TestTieRules(t *testing.T) { runOracle(t, "two-fair-coins") }

func TestPMFSumsToOne(t *testing.T)                      { runOracle(t, "sums/unit") }
func TestWeightedPMFSumsToOne(t *testing.T)              { runOracle(t, "sums/weighted") }
func TestMajorityMatchesMonteCarlo(t *testing.T)         { runOracle(t, "monte-carlo/unit") }
func TestWeightedMatchesMonteCarlo(t *testing.T)         { runOracle(t, "monte-carlo/weighted") }
func TestWeightedMajorityMatchesBruteForce(t *testing.T) { runOracle(t, "brute-force/") }

func TestQuickPMFValidDistribution(t *testing.T) { runOracle(t, "enumerable/unit/") }
func TestQuickWeightedMajorityMatchesBruteForce(t *testing.T) {
	runOracle(t, "enumerable/w5/")
}
func TestQuickWeightedPMFValid(t *testing.T) { runOracle(t, "enumerable/w10/") }

func TestPBPMFParallelBitIdentical(t *testing.T)   { runOracle(t, "random/maxW=1/") }
func TestWMPMFParallelBitIdentical(t *testing.T)   { runOracle(t, "random/maxW=7/") }
func TestDivideAndConquerEquivalence(t *testing.T) { runOracle(t, "random/maxW=24/") }

func TestDivideAndConquerEdgeCases(t *testing.T) {
	for name, prefix := range map[string]string{
		"empty":            "empty",
		"single-voter":     "single-weighted-voter",
		"weight-1-only":    "unit/",
		"all-p-degenerate": "point-mass/",
	} {
		t.Run(name, func(t *testing.T) { runOracle(t, prefix) })
	}
}

// TestProbAtLeastEdges pins MajorityMass, the package's one tail sum over a
// PMF: the tail starts at the first strict majority, above the middle on an
// odd total and above the tie on an even one; it is empty with no voter;
// and rounding outside [0, 1] is clamped.
func TestProbAtLeastEdges(t *testing.T) {
	for _, c := range []struct {
		f    []float64
		want float64
	}{
		{[]float64{1}, 0},
		{[]float64{0.25, 0.75}, 0.75},
		{[]float64{0.25, 0.5, 0.25}, 0.25},
		{[]float64{0.125, 0.125, 0.25, 0.5}, 0.75},
		{[]float64{0, 0, 0.75, 0.75}, 1},
		{[]float64{1, -0.25}, 0},
	} {
		if got := MajorityMass(c.f); got != c.want {
			t.Errorf("MajorityMass(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}
