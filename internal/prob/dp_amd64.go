package prob

// cpuLanes reports whether the exact kernels run four lanes at a time: the
// bulk of each DP leaf pass (dp_amd64.s) and the FFT's stages, spectrum
// product and final scale (fft_amd64.s). The CPU has AVX2 and FMA and the
// operating system saves YMM state. Read once at start-up; the lanes and the
// scalar loops write the same bits, so the value never changes a result.
var cpuLanes = hasLanes()

// hasLanes checks CPUID.1:ECX for FMA (bit 12), OSXSAVE (27) and AVX (28),
// CPUID.7.0:EBX for AVX2 (bit 5), and XCR0 for XMM and YMM state (bits 1
// and 2). The DP leaf needs AVX and FMA, the FFT AVX2's VPERMPD.
func hasLanes() bool {
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// pairLanes runs blocks blocks of four lanes of an equal-weight pair's pass,
// descending from lane top: f[t] = FMA(f[t-2w], a2, FMA(f[t-w], a1, f[t]*a0)).
// The caller guarantees top < len(f) and top-4*blocks+1 >= 2w.
//
//go:noescape
func pairLanes(f []float64, w, top, blocks int, a0, a1, a2 float64)

// singleLanes runs blocks blocks of four lanes of a lone voter's pass,
// descending from lane top: f[t] = FMA(f[t-w], p, f[t]*q). The caller
// guarantees top < len(f) and top-4*blocks+1 >= w.
//
//go:noescape
func singleLanes(f []float64, w, top, blocks int, p, q float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
