#include "textflag.h"

// The AVX micro-kernels behind matMul (tiled_amd64.go). Each keeps a
// row × 12-column block of dst in YMM accumulators across the whole k loop:
// per step it loads offs[t], broadcasts each row's a value from its base
// plus that offset, loads b[t, j:j+12] as three 4-wide vectors, and adds
// every product with VMULPD then VADDPD. The multiply and the add round
// separately, never fused, the accumulators start at +0 and t runs 0…k−1,
// so each element gets exactly the roundings of the Go kernel's
// `c += av * b`. Once per block, add says whether the sums are added into
// dst (VADDPD) before they are stored. Both need k ≥ 1 and nblk ≥ 1.

// func mul2x12(a0, a1 *float64, offs *int, b, d0, d1 *float64, k, n, nblk int, add bool)
TEXT ·mul2x12(SB), NOSPLIT, $0-73
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ offs+16(FP), R13
	MOVQ b+24(FP), DX
	MOVQ d0+32(FP), R8
	MOVQ d1+40(FP), R9
	MOVQ k+48(FP), CX
	MOVQ n+56(FP), R10
	MOVQ nblk+64(FP), R11
	SHLQ $3, R10 // b's row stride in bytes

block2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   DX, BX     // &b[t, j]
	XORQ   AX, AX     // t

step2:
	MOVQ         (R13)(AX*8), R12 // offs[t]
	VBROADCASTSD (SI)(R12*8), Y6
	VBROADCASTSD (DI)(R12*8), Y7
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VMOVUPD      64(BX), Y10
	VMULPD       Y8, Y6, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y6, Y12
	VADDPD       Y12, Y1, Y1
	VMULPD       Y10, Y6, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       Y8, Y7, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       Y9, Y7, Y15
	VADDPD       Y15, Y4, Y4
	VMULPD       Y10, Y7, Y11
	VADDPD       Y11, Y5, Y5
	ADDQ         R10, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          step2

	CMPB    add+72(FP), $0
	JEQ     store2
	VADDPD  (R8), Y0, Y0
	VADDPD  32(R8), Y1, Y1
	VADDPD  64(R8), Y2, Y2
	VADDPD  (R9), Y3, Y3
	VADDPD  32(R9), Y4, Y4
	VADDPD  64(R9), Y5, Y5

store2:
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, (R9)
	VMOVUPD Y4, 32(R9)
	VMOVUPD Y5, 64(R9)
	ADDQ    $96, DX
	ADDQ    $96, R8
	ADDQ    $96, R9
	DECQ    R11
	JNZ     block2
	VZEROUPPER
	RET

// func mul1x12(a *float64, offs *int, b, d *float64, k, n, nblk int, add bool)
TEXT ·mul1x12(SB), NOSPLIT, $0-57
	MOVQ a+0(FP), SI
	MOVQ offs+8(FP), R13
	MOVQ b+16(FP), DX
	MOVQ d+24(FP), R8
	MOVQ k+32(FP), CX
	MOVQ n+40(FP), R10
	MOVQ nblk+48(FP), R11
	SHLQ $3, R10

block1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ   DX, BX
	XORQ   AX, AX

step1:
	MOVQ         (R13)(AX*8), R12
	VBROADCASTSD (SI)(R12*8), Y6
	VMULPD       (BX), Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       32(BX), Y6, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       64(BX), Y6, Y10
	VADDPD       Y10, Y2, Y2
	ADDQ         R10, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          step1

	CMPB    add+56(FP), $0
	JEQ     store1
	VADDPD  (R8), Y0, Y0
	VADDPD  32(R8), Y1, Y1
	VADDPD  64(R8), Y2, Y2

store1:
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	ADDQ    $96, DX
	ADDQ    $96, R8
	DECQ    R11
	JNZ     block1
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
