package prob_test

import (
	"fmt"

	"liquid/internal/prob"
)

// Example computes the exact probability that a weighted delegated vote
// decides correctly, with the paper's ties-lose rule.
func Example() {
	ws := prob.NewWorkspace()
	f, err := ws.PMF([]prob.WeightedVoter{
		{Weight: 5, P: 0.8},  // a heavy, competent sink
		{Weight: 3, P: 0.4},  // a medium, weak sink
		{Weight: 1, P: 0.55}, // a direct voter
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("P[correct] = %.4f\n", prob.MajorityMass(f))
	fmt.Println("total weight:", len(f)-1)
	// Output:
	// P[correct] = 0.8000
	// total weight: 9
}

// ExampleMajorityMass shows direct voting as the engine sees it: unit
// voters (Condorcet jury theorem territory).
func ExampleMajorityMass() {
	ps := make([]float64, 101)
	for i := range ps {
		ps[i] = 0.55 // everyone slightly better than a coin
	}
	ws := prob.NewWorkspace()
	f, err := ws.PMF(ws.UnitVoters(ps))
	if err != nil {
		panic(err)
	}
	fmt.Printf("101 voters at 0.55: P[majority correct] = %.3f\n", prob.MajorityMass(f))
	// Output:
	// 101 voters at 0.55: P[majority correct] = 0.844
}
