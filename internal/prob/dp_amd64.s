#include "textflag.h"

// The DP leaf's vector lanes (see dp_amd64.go). Each block of four lanes
// performs exactly the scalar loop's IEEE operations in the scalar loop's
// order: one multiply, then one or two fused multiply-adds, each rounded
// once. Blocks run downward from top, so every block reads only lanes no
// block has written yet.

// func pairLanes(f []float64, w, top, blocks int, a0, a1, a2 float64)
TEXT ·pairLanes(SB), NOSPLIT, $0-72
	MOVQ         f_base+0(FP), DI
	MOVQ         w+24(FP), BX
	MOVQ         top+32(FP), AX
	MOVQ         blocks+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	SHLQ         $3, BX
	LEAQ         -24(DI)(AX*8), SI // &f[top-3]
	TESTQ        CX, CX
	JLE          pairdone

pairloop:
	MOVQ        SI, DX
	SUBQ        BX, DX             // &f[t-w]
	VMULPD      (SI), Y0, Y3       // f[t]*a0
	VFMADD231PD (DX), Y1, Y3       // FMA(f[t-w], a1, ·)
	SUBQ        BX, DX             // &f[t-2w]
	VFMADD231PD (DX), Y2, Y3       // FMA(f[t-2w], a2, ·)
	VMOVUPD     Y3, (SI)
	SUBQ        $32, SI
	DECQ        CX
	JNZ         pairloop

pairdone:
	VZEROUPPER
	RET

// func singleLanes(f []float64, w, top, blocks int, p, q float64)
TEXT ·singleLanes(SB), NOSPLIT, $0-64
	MOVQ         f_base+0(FP), DI
	MOVQ         w+24(FP), BX
	MOVQ         top+32(FP), AX
	MOVQ         blocks+40(FP), CX
	VBROADCASTSD p+48(FP), Y0
	VBROADCASTSD q+56(FP), Y1
	SHLQ         $3, BX
	LEAQ         -24(DI)(AX*8), SI // &f[top-3]
	TESTQ        CX, CX
	JLE          singledone

singleloop:
	MOVQ        SI, DX
	SUBQ        BX, DX             // &f[t-w]
	VMULPD      (SI), Y1, Y3       // f[t]*q
	VFMADD231PD (DX), Y0, Y3       // FMA(f[t-w], p, ·)
	VMOVUPD     Y3, (SI)
	SUBQ        $32, SI
	DECQ        CX
	JNZ         singleloop

singledone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
