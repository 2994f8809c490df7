#include "textflag.h"

// The FFT's vector lanes (see fft_amd64.go). Each lane performs exactly the
// scalar loops' IEEE operations in their order: a twiddle product is two
// VMULPD and a VSUBPD (real part) or a VADDPD (imaginary part), a
// butterfly one VADDPD and one VSUBPD, and every product is rounded before
// its sum, as Go's scalar MULSD then ADDSD are. There is no fused
// multiply-add, so every lane writes the scalar bits.

DATA fftHalf<>+0(SB)/8, $0.5
GLOBL fftHalf<>(SB), RODATA|NOPTR, $8

DATA fftSignBit<>+0(SB)/8, $0x8000000000000000
GLOBL fftSignBit<>(SB), RODATA|NOPTR, $8

// func fft8Lanes(re, im, w4r, w4i, w8r, w8i []float64)
TEXT ·fft8Lanes(SB), NOSPLIT, $0-144
	MOVQ    re_base+0(FP), DI
	MOVQ    re_len+8(FP), CX
	MOVQ    im_base+24(FP), SI
	MOVQ    w4r_base+48(FP), AX
	MOVQ    w4i_base+72(FP), BX
	MOVQ    w8r_base+96(FP), DX
	MOVQ    w8i_base+120(FP), R8
	VMOVUPD (AX), X14
	VPERMPD $0x50, Y14, Y14 // w4r 0 0 1 1
	VMOVUPD (BX), X15
	VPERMPD $0x50, Y15, Y15 // w4i 0 0 1 1
	VMOVUPD (DX), Y12       // w8r 0 1 2 3
	VMOVUPD (R8), Y13       // w8i 0 1 2 3
	SHRQ    $3, CX
	JZ      done8

loop8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3

	// Size 2: the butterflies (0,1), (4,5), (2,3), (6,7), no twiddle.
	VUNPCKLPD Y1, Y0, Y4 // re 0 4 2 6
	VUNPCKHPD Y1, Y0, Y5 // re 1 5 3 7
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VADDPD    Y5, Y4, Y0 // re 0 4 2 6
	VSUBPD    Y5, Y4, Y1 // re 1 5 3 7
	VADDPD    Y7, Y6, Y2
	VSUBPD    Y7, Y6, Y3

	// Size 4: the butterflies (0,2), (4,6) with w4[0] and (1,3), (5,7)
	// with w4[1].
	VPERM2F128 $0x20, Y1, Y0, Y4 // re 0 4 1 5: upper points
	VPERM2F128 $0x31, Y1, Y0, Y5 // re 2 6 3 7: lower points
	VPERM2F128 $0x20, Y3, Y2, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VMULPD     Y14, Y5, Y0       // xr*wr
	VMULPD     Y15, Y7, Y1       // xi*wi
	VSUBPD     Y1, Y0, Y0        // tr
	VMULPD     Y15, Y5, Y1       // xr*wi
	VMULPD     Y14, Y7, Y2       // xi*wr
	VADDPD     Y2, Y1, Y1        // ti
	VADDPD     Y0, Y4, Y2        // re 0 4 1 5
	VSUBPD     Y0, Y4, Y3        // re 2 6 3 7
	VADDPD     Y1, Y6, Y4
	VSUBPD     Y1, Y6, Y5

	// Size 8: the butterflies (k, k+4) with w8[k].
	VUNPCKLPD Y3, Y2, Y0 // re 0 2 1 3
	VUNPCKHPD Y3, Y2, Y1 // re 4 6 5 7
	VUNPCKLPD Y5, Y4, Y2
	VUNPCKHPD Y5, Y4, Y3
	VPERMPD   $0xD8, Y0, Y0 // re 0 1 2 3
	VPERMPD   $0xD8, Y1, Y1 // re 4 5 6 7
	VPERMPD   $0xD8, Y2, Y2
	VPERMPD   $0xD8, Y3, Y3
	VMULPD    Y12, Y1, Y4
	VMULPD    Y13, Y3, Y5
	VSUBPD    Y5, Y4, Y4    // tr
	VMULPD    Y13, Y1, Y5
	VMULPD    Y12, Y3, Y6
	VADDPD    Y6, Y5, Y5    // ti
	VADDPD    Y4, Y0, Y6
	VSUBPD    Y4, Y0, Y7
	VADDPD    Y5, Y2, Y8
	VSUBPD    Y5, Y2, Y9
	VMOVUPD   Y6, (DI)
	VMOVUPD   Y7, 32(DI)
	VMOVUPD   Y8, (SI)
	VMOVUPD   Y9, 32(SI)

	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  loop8

done8:
	VZEROUPPER
	RET

// func fftPairLanes(re, im, war, wai, wbr, wbi []float64)
//
// Registers: DI and SI point at re[j0] and im[j0]; BX, CX and DX hold h,
// m = 2h and 3h in bytes, the offsets of j1, j2 and j3; R9 to R12 point
// at war[t], wai[t], wbr[t] and wbi[t], and wbr[t+h] is (R11)(BX*1).
TEXT ·fftPairLanes(SB), NOSPLIT, $0-144
	MOVQ re_base+0(FP), DI
	MOVQ re_len+8(FP), R13
	LEAQ (DI)(R13*8), R13 // &re[n], the end
	MOVQ im_base+24(FP), SI
	MOVQ war_len+56(FP), BX
	SHLQ $3, BX
	LEAQ (BX)(BX*1), CX
	LEAQ (CX)(BX*1), DX

pairouter:
	MOVQ war_base+48(FP), R9
	MOVQ wai_base+72(FP), R10
	MOVQ wbr_base+96(FP), R11
	MOVQ wbi_base+120(FP), R12
	MOVQ war_len+56(FP), AX
	SHRQ $2, AX

pairinner:
	// Size m, butterfly (j0, j1).
	VMOVUPD (R9), Y2
	VMOVUPD (R10), Y3
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4     // t1r
	VMULPD  Y3, Y0, Y5
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y5, Y5     // t1i
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VADDPD  Y4, Y0, Y6     // a0r
	VADDPD  Y5, Y1, Y7     // a0i
	VSUBPD  Y4, Y0, Y8     // a1r
	VSUBPD  Y5, Y1, Y9     // a1i

	// Size m, butterfly (j2, j3): the same twiddle.
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD (SI)(DX*1), Y1
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4     // t3r
	VMULPD  Y3, Y0, Y5
	VMULPD  Y2, Y1, Y10
	VADDPD  Y10, Y5, Y5    // t3i
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VADDPD  Y4, Y0, Y10    // a2r
	VADDPD  Y5, Y1, Y11    // a2i
	VSUBPD  Y4, Y0, Y12    // a3r
	VSUBPD  Y5, Y1, Y13    // a3i

	// Size 2m, butterfly (j0, j2).
	VMOVUPD (R11), Y2
	VMOVUPD (R12), Y3
	VMULPD  Y2, Y10, Y4
	VMULPD  Y3, Y11, Y5
	VSUBPD  Y5, Y4, Y4     // t2r
	VMULPD  Y3, Y10, Y5
	VMULPD  Y2, Y11, Y0
	VADDPD  Y0, Y5, Y5     // t2i
	VADDPD  Y4, Y6, Y0
	VADDPD  Y5, Y7, Y1
	VSUBPD  Y4, Y6, Y2
	VSUBPD  Y5, Y7, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (SI)
	VMOVUPD Y2, (DI)(CX*1)
	VMOVUPD Y3, (SI)(CX*1)

	// Size 2m, butterfly (j1, j3).
	VMOVUPD (R11)(BX*1), Y2
	VMOVUPD (R12)(BX*1), Y3
	VMULPD  Y2, Y12, Y4
	VMULPD  Y3, Y13, Y5
	VSUBPD  Y5, Y4, Y4     // t4r
	VMULPD  Y3, Y12, Y5
	VMULPD  Y2, Y13, Y0
	VADDPD  Y0, Y5, Y5     // t4i
	VADDPD  Y4, Y8, Y0
	VADDPD  Y5, Y9, Y1
	VSUBPD  Y4, Y8, Y2
	VSUBPD  Y5, Y9, Y3
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, (SI)(BX*1)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, (SI)(DX*1)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ AX
	JNZ  pairinner

	// The inner loop advanced h points; the next block starts 3h on.
	ADDQ DX, DI
	ADDQ DX, SI
	CMPQ DI, R13
	JB   pairouter

	VZEROUPPER
	RET

// func fftStageLanes(re, im, wr, wi []float64)
TEXT ·fftStageLanes(SB), NOSPLIT, $0-96
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), SI
	MOVQ wr_base+48(FP), R8
	MOVQ wr_len+56(FP), CX
	MOVQ wi_base+72(FP), R9
	MOVQ CX, BX
	SHLQ $3, BX            // half in bytes, the offset of k = j + half
	SHRQ $2, CX
	JZ   stagedone

stageloop:
	VMOVUPD (R8), Y2
	VMOVUPD (R9), Y3
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4     // tr
	VMULPD  Y3, Y0, Y5
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y5, Y5     // ti
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VADDPD  Y4, Y0, Y6
	VADDPD  Y5, Y1, Y7
	VSUBPD  Y4, Y0, Y8
	VSUBPD  Y5, Y1, Y9
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, (SI)
	VMOVUPD Y8, (DI)(BX*1)
	VMOVUPD Y9, (SI)(BX*1)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     stageloop

stagedone:
	VZEROUPPER
	RET

// func fftProductLanes(re, im []float64, blocks int)
//
// DI and SI walk the bins k up from 1, R8 and R9 the four mirror bins
// n-k down from n-4; VPERMPD $0x1B reverses the mirrors into lane order.
TEXT ·fftProductLanes(SB), NOSPLIT, $0-56
	MOVQ         re_base+0(FP), DI
	MOVQ         re_len+8(FP), AX
	MOVQ         im_base+24(FP), SI
	MOVQ         blocks+48(FP), CX
	VBROADCASTSD fftHalf<>(SB), Y14
	VBROADCASTSD fftSignBit<>(SB), Y15
	LEAQ         -32(DI)(AX*8), R8
	LEAQ         -32(SI)(AX*8), R9
	ADDQ         $8, DI
	ADDQ         $8, SI
	TESTQ        CX, CX
	JLE          proddone

prodloop:
	VMOVUPD (DI), Y0            // zr1
	VMOVUPD (SI), Y1            // zi1
	VPERMPD $0x1B, (R8), Y2     // zr2
	VPERMPD $0x1B, (R9), Y3     // zi2
	VADDPD  Y2, Y0, Y4
	VMULPD  Y14, Y4, Y4         // ar = (zr1 + zr2) / 2
	VSUBPD  Y3, Y1, Y5
	VMULPD  Y14, Y5, Y5         // ai = (zi1 - zi2) / 2
	VADDPD  Y3, Y1, Y6
	VMULPD  Y14, Y6, Y6         // br = (zi1 + zi2) / 2
	VSUBPD  Y0, Y2, Y7
	VMULPD  Y14, Y7, Y7         // bi = (zr2 - zr1) / 2
	VMULPD  Y6, Y4, Y8
	VMULPD  Y7, Y5, Y9
	VSUBPD  Y9, Y8, Y8          // cr = ar*br - ai*bi
	VMULPD  Y7, Y4, Y9
	VMULPD  Y6, Y5, Y10
	VADDPD  Y10, Y9, Y9         // ci = ar*bi + ai*br
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (SI)
	VXORPD  Y15, Y9, Y9         // -ci
	VPERMPD $0x1B, Y8, Y8
	VPERMPD $0x1B, Y9, Y9
	VMOVUPD Y8, (R8)
	VMOVUPD Y9, (R9)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $32, R8
	SUBQ    $32, R9
	DECQ    CX
	JNZ     prodloop

proddone:
	VZEROUPPER
	RET

// func scaleClampLanes(dst, src []float64, blocks int, inv float64)
TEXT ·scaleClampLanes(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         blocks+48(FP), CX
	VBROADCASTSD inv+56(FP), Y0
	VXORPD       Y1, Y1, Y1
	TESTQ        CX, CX
	JLE          clampdone

clamploop:
	VMULPD  (SI), Y0, Y2     // v = src[i] * inv
	VCMPPD  $0x11, Y1, Y2, Y3 // v < 0, ordered: false for -0 and NaN
	VANDNPD Y2, Y3, Y2       // +0 where v < 0, else v
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     clamploop

clampdone:
	VZEROUPPER
	RET
