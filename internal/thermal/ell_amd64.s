#include "go_asm.h"
#include "textflag.h"

// func ellSubstepAVX2(k *ellKernel, h float64, lo, hi int) (stale bool)
//
// Registers: AX t, BX tn, CX negConv, DX invCap, R9 pw, R10 tAtK, R11 g,
// R12 idx, R13 rows; SI = 4·slice and R8 = 4·hi index the lane arrays,
// DI..R14 the slice's entries, R15 one neighbour slot. Y0 t_i, Y1 q, Y2
// the neighbour term (X3 its upper half while it is filled), Y11 stale
// lanes, Y12 |·| mask, Y13 tol, Y14 amb, Y15 h. Every step is a separately
// rounded vector op in substepGo's order. A row's four neighbour
// temperatures are fetched by four scalar loads: on a 2-vCPU Xeon host
// that ran the kernel about 20% faster than one VGATHERDPD.
TEXT ·ellSubstepAVX2(SB), NOSPLIT, $0-33
	MOVQ k+0(FP), DI
	VBROADCASTSD h+8(FP), Y15
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), R8
	SHLQ $2, SI
	SHLQ $2, R8
	MOVQ ellKernel_t(DI), AX
	MOVQ ellKernel_tn(DI), BX
	MOVQ ellKernel_negConv(DI), CX
	MOVQ ellKernel_invCap(DI), DX
	MOVQ ellKernel_pw(DI), R9
	MOVQ ellKernel_tAtK(DI), R10
	MOVQ ellKernel_g(DI), R11
	MOVQ ellKernel_idx(DI), R12
	MOVQ ellKernel_rows(DI), R13
	VBROADCASTSD ellKernel_amb(DI), Y14
	VBROADCASTSD ellKernel_tol(DI), Y13
	VPCMPEQQ Y12, Y12, Y12
	VPSRLQ $1, Y12, Y12
	VXORPD Y11, Y11, Y11
	CMPQ SI, R8
	JGE done

slice:
	VMOVUPD (AX)(SI*8), Y0
	VSUBPD Y14, Y0, Y1              // t_i − amb
	VMULPD (CX)(SI*8), Y1, Y1       // q = (−conv)·(t_i − amb)
	MOVLQSX (R13)(SI*1), DI         // rows[s]
	MOVLQSX 4(R13)(SI*1), R14       // rows[s+1]
	CMPQ DI, R14
	JGE rowsdone

row:
	MOVLQSX (R12)(DI*4), R15        // t_j of the four lanes
	VMOVSD (AX)(R15*8), X2
	MOVLQSX 4(R12)(DI*4), R15
	VMOVHPD (AX)(R15*8), X2, X2
	MOVLQSX 8(R12)(DI*4), R15
	VMOVSD (AX)(R15*8), X3
	MOVLQSX 12(R12)(DI*4), R15
	VMOVHPD (AX)(R15*8), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VSUBPD Y0, Y2, Y2               // t_j − t_i
	VMULPD (R11)(DI*8), Y2, Y2      // g·(t_j − t_i)
	VADDPD Y2, Y1, Y1               // q = q + g·(t_j − t_i)
	ADDQ $4, DI
	CMPQ DI, R14
	JLT row

rowsdone:
	VADDPD (R9)(SI*8), Y1, Y1       // q = q + pw
	VMULPD Y15, Y1, Y1              // h·q
	VMULPD (DX)(SI*8), Y1, Y1       // (h·q)·(1/C)
	VADDPD Y1, Y0, Y1               // t_i + (h·q)·(1/C)
	VMOVUPD Y1, (BX)(SI*8)
	VSUBPD (R10)(SI*8), Y1, Y1      // d = t_i' − tAtK
	VANDPD Y12, Y1, Y1              // |d|
	VCMPPD $0x1e, Y13, Y1, Y1       // |d| > tol, false for NaN (GT_OQ)
	VORPD Y1, Y11, Y11
	ADDQ $4, SI
	CMPQ SI, R8
	JLT slice

done:
	VMOVMSKPD Y11, AX
	TESTL AX, AX
	SETNE stale+32(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
