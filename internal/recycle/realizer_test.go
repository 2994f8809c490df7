package recycle

import (
	"testing"

	"liquid/internal/rng"
)

// realizerGraphs builds graphs exercising every run kind: independent
// (all fresh), layered copy-only, mixed z, and degenerate p values.
func realizerGraphs(t *testing.T) []*Graph {
	t.Helper()
	s := rng.New(71)
	var gs []*Graph

	n := 400
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.2 + 0.6*s.Float64()
	}
	ind, err := NewIndependent(p)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, ind)

	// Fresh prefix then copy-only suffix.
	j := 40
	z := make([]float64, n)
	upTo := make([]int, n)
	for i := 0; i < j; i++ {
		z[i] = 1
	}
	for i := j; i < n; i++ {
		upTo[i] = j + (i-j)/2
	}
	layered, err := New(j, z, p, upTo)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, layered)

	// Mixed z in (0, 1) plus degenerate p on some vertices.
	z2 := make([]float64, n)
	p2 := append([]float64(nil), p...)
	for i := 0; i < j; i++ {
		z2[i] = 1
	}
	for i := j; i < n; i++ {
		z2[i] = 0.3 + 0.4*s.Float64()
	}
	p2[5], p2[6], p2[j+3], p2[j+4] = 0, 1, 0, 1
	mixed, err := New(j, z2, p2, upTo)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, mixed)
	return gs
}

// TestSumFastDeterministicAndCalibrated pins SumFast's two contracts: a
// fixed seed reproduces the identical sum (the fast protocol is
// deterministic even though it differs from Realize's), and the sampled
// mean tracks the exact recycle mean closely enough that the 2^-32
// quantization is invisible at Monte Carlo scale.
func TestSumFastDeterministicAndCalibrated(t *testing.T) {
	for gi, g := range realizerGraphs(t) {
		r := g.Realizer()
		mu := g.MeanSum()
		const reps = 4000
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			seed := uint64(5000*gi + rep + 1)
			a := r.SumFast(rng.New(seed))
			if b := r.SumFast(rng.New(seed)); a != b {
				t.Fatalf("graph %d rep %d: SumFast not deterministic: %d vs %d", gi, rep, a, b)
			}
			total += float64(a)
		}
		mean := total / reps
		// X_n is a sum of ~400 dependent indicators; its stddev is well under
		// 20, so the mean of 4000 samples sits within ~1 of mu w.h.p.
		if d := mean - mu; d > 2 || d < -2 {
			t.Fatalf("graph %d: SumFast mean %.2f far from exact mean %.2f", gi, mean, mu)
		}
	}
}

func BenchmarkRealizerSumFast(b *testing.B) {
	s := rng.New(73)
	n := 5000
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.2 + 0.6*s.Float64()
	}
	z := make([]float64, n)
	upTo := make([]int, n)
	j := n / 10
	for i := 0; i < j; i++ {
		z[i] = 1
	}
	for i := j; i < n; i++ {
		upTo[i] = j
	}
	g, err := New(j, z, p, upTo)
	if err != nil {
		b.Fatal(err)
	}
	r := g.Realizer()
	stream := rng.New(75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.SumFast(stream) < 0 {
			b.Fatal("impossible")
		}
	}
}
