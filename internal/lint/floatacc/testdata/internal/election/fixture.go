// Package election is inside floatacc's scope: its moment and aggregation
// loops feed reproduced tables, so naive accumulation is flagged exactly as
// in internal/prob.
package election

// moments mimics ResolutionMoments before its Accumulator port.
func moments(ws []float64, ps []float64) (mean, variance float64) {
	for i, w := range ws {
		p := ps[i]
		mean += w * p         // want `naive float accumulation`
		variance += w * w * p // want `naive float accumulation`
	}
	return mean, variance
}

// aggregate mimics the EvaluateMechanism replication averages.
func aggregate(outs []float64) float64 {
	var meanSinks float64
	for _, o := range outs {
		meanSinks += o // want `naive float accumulation`
	}
	return meanSinks / float64(len(outs))
}

// counts stay integer and unflagged.
func counts(outs []int) int {
	s := 0
	for _, o := range outs {
		s += o
	}
	return s
}

// tinyFanIn shows the justified-suppression escape hatch used by the
// multi-delegate kernel's weighted rows (compileMulti and multiKernel.block).
func tinyFanIn(ws []float64) float64 {
	var total float64
	for _, w := range ws {
		//lint:ignore floatacc delegate fan-ins are tiny; compensating would perturb sampled values
		total += w
	}
	return total
}
