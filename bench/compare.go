package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Claim rule: a gain needs at least minPairs pairs of runs that alternate
// which side ran first, won by the change in at least winShare of them,
// with medians further apart than the baseline's own quartile spread.
const (
	minPairs = 10
	winShare = 0.9
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Schema == recordSchema && !rec.Config.Trace {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// runCompare compares the untraced runs in two result files — a is the
// baseline (the parent commit), b the change — one row per workload and
// end-to-end metric.
func runCompare(pathA, pathB string, out io.Writer) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	byWorkload := func(recs []record) map[string][]record {
		m := make(map[string][]record)
		for _, r := range recs {
			m[r.Config.Workload] = append(m[r.Config.Workload], r)
		}
		for _, rs := range m {
			sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict\tclaim")
	for _, w := range workloads {
		ra, rb := wa[w.name], wb[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			row := compareMetric(d, values(ra, d.name), values(rb, d.name), pairOrder(ra, rb))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\t%s\n", w.name, d.name,
				describe(values(ra, d.name)), describe(values(rb, d.name)), 100*row.change, 100*d.bound, row.verdict, row.claim)
		}
	}
	return tw.Flush()
}

func values(recs []record, metric string) []float64 {
	v := make([]float64, len(recs))
	for i, r := range recs {
		v[i] = r.Metrics[metric]
	}
	return v
}

func describe(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}

// pairOrder reports, for each pair i of the i-th runs of a and b, whether
// a's ran first; nil when the files hold different numbers of runs.
func pairOrder(a, b []record) []bool {
	if len(a) != len(b) {
		return nil
	}
	first := make([]bool, len(a))
	for i := range a {
		first[i] = a[i].Started.Before(b[i].Started)
	}
	return first
}

type comparison struct {
	change  float64 // (B - A) / A of the medians, signed as measured
	verdict string
	claim   string
}

// compareMetric applies the no-regression rule and the claim rule to one
// metric's runs. aFirst[i] says whether the baseline ran first in pair i.
func compareMetric(d metricDef, a, b []float64, aFirst []bool) comparison {
	ma, mb := median(a), median(b)
	c := comparison{change: share(mb-ma, ma)}
	worse := c.change
	if !d.lower {
		worse = -worse
	}
	better := func(x, y float64) bool { // x better than y
		if d.lower {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case allBetter:
		c.verdict = "better in every run"
	case spread(a) > d.bound || spread(b) > d.bound:
		c.verdict = "unresolved"
	case worse > d.bound:
		c.verdict = "REGRESSION"
	case -worse > d.bound:
		c.verdict = "better"
	default:
		c.verdict = "within bound"
	}

	switch {
	case len(aFirst) < minPairs:
		c.claim = fmt.Sprintf("no claim: %d pairs, need %d", len(aFirst), minPairs)
	case !alternating(aFirst):
		c.claim = "no claim: pairs did not alternate which side ran first"
	default:
		wins := 0
		for i := range aFirst {
			if better(b[i], a[i]) {
				wins++
			}
		}
		q1, _, q3 := quartiles(a)
		if float64(wins) >= winShare*float64(len(aFirst)) && math.Abs(mb-ma) > q3-q1 {
			c.claim = fmt.Sprintf("gain: B won %d/%d pairs", wins, len(aFirst))
		} else {
			c.claim = fmt.Sprintf("no gain: B won %d/%d pairs", wins, len(aFirst))
		}
	}
	return c
}

// alternating reports whether consecutive pairs swap which side ran first.
func alternating(aFirst []bool) bool {
	for i := 1; i < len(aFirst); i++ {
		if aFirst[i] == aFirst[i-1] {
			return false
		}
	}
	return true
}
