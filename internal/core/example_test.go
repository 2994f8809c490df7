package core_test

import (
	"fmt"

	"liquid/internal/core"
	"liquid/internal/graph"
)

// Example builds the paper's Figure 2 instance and inspects approval sets.
func Example() {
	p := []float64{0.8, 0.6, 0.5, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1}
	in, err := core.NewInstance(graph.NewComplete(len(p)), p)
	if err != nil {
		panic(err)
	}
	fmt.Println("voters:", in.N())
	view := in.ApprovalView(0.01)
	fmt.Println("|J(v9)| at alpha=0.01:", view.Count(8))
	fmt.Println("|J(v1)| at alpha=0.01:", view.Count(0))
	// Output:
	// voters: 9
	// |J(v9)| at alpha=0.01: 8
	// |J(v1)| at alpha=0.01: 0
}

// ExampleDelegationGraph_Resolve resolves a delegation chain into sinks and
// weights.
func ExampleDelegationGraph_Resolve() {
	d := core.NewDelegationGraph(4)
	_ = d.SetDelegate(0, 1) // 0 -> 1 -> 2; 3 votes directly
	_ = d.SetDelegate(1, 2)
	res, err := d.Resolve()
	if err != nil {
		panic(err)
	}
	fmt.Println("sinks:", res.Sinks)
	fmt.Println("weight of voter 2:", res.Weight[2])
	fmt.Println("longest chain:", res.LongestChain)
	// Output:
	// sinks: [2 3]
	// weight of voter 2: 3
	// longest chain: 2
}

// ExampleDelegationGraph_ResolveWithWeights shows token-weighted (DAO)
// resolution.
func ExampleDelegationGraph_ResolveWithWeights() {
	d := core.NewDelegationGraph(3)
	_ = d.SetDelegate(0, 2)
	res, err := d.ResolveWithWeights([]int{100, 1, 10}) // voter 0 is a whale
	if err != nil {
		panic(err)
	}
	fmt.Println("sink 2 holds:", res.Weight[2])
	// Output:
	// sink 2 holds: 110
}
