#include "textflag.h"
#include "kernel_amd64.h"

// The AVX2 body runs the same per-lane arithmetic as kernel_sse_amd64.s, 8
// lanes at a time and VEX-encoded (three-operand, so no register copies).
// No FMA anywhere: every multiply and add rounds separately, as in Go.

// AVX_S: Y0-Y2 hold xj,yj,zj on entry; on exit they hold d = xj - xi and Y3
// holds s = (dx*dx + dy*dy) + dz*dz. Clobbers Y4.
#define AVX_S \
	VSUBPS Y8, Y0, Y0;  \
	VSUBPS Y9, Y1, Y1;  \
	VSUBPS Y10, Y2, Y2; \
	VMULPS Y0, Y0, Y3;  \
	VMULPS Y1, Y1, Y4;  \
	VADDPS Y4, Y3, Y3;  \
	VMULPS Y2, Y2, Y4;  \
	VADDPS Y4, Y3, Y3

// AVX_CUT: Y15 = (s < rc2) lane mask, AX = its sign bits (low 4 bits are
// the low 128-bit half).
#define AVX_CUT \
	VCMPPS    $1, KC_RC2(R8), Y3, Y15; \
	VMOVMSKPS Y15, AX

// AVX_NEWTON: y *= 1.5 - ((0.5x)*y)*y, with y in Y12, 0.5x in Y11, 1.5 in Y4.
#define AVX_NEWTON \
	VMULPS Y12, Y11, Y13; \
	VMULPS Y12, Y13, Y13; \
	VSUBPS Y13, Y4, Y13;  \
	VMULPS Y13, Y12, Y12

// AVX_F: from d (Y0-Y2), s (Y3) and the cutoff mask (Y15), leaves the pair
// terms d*f in Y0-Y2; same operations in the same order as SSE_F. Clobbers
// Y4, Y11-Y13.
#define AVX_F \
	VADDPS  KC_EPS(R8), Y3, Y11;   \
	VPSRLD  $1, Y11, Y4;           \
	VMOVDQU KC_MAGIC(R8), Y12;     \
	VPSUBD  Y4, Y12, Y12;          \
	VMULPS  KC_HALF(R8), Y11, Y11; \
	VMOVUPS KC_1P5(R8), Y4;        \
	AVX_NEWTON;                    \
	AVX_NEWTON;                    \
	AVX_NEWTON;                    \
	VMULPS  Y12, Y12, Y13;         \
	VMULPS  Y12, Y13, Y13;         \
	VMULPS  KC_C5(R8), Y3, Y4;     \
	VADDPS  KC_C4(R8), Y4, Y4;     \
	VMULPS  Y3, Y4, Y4;            \
	VADDPS  KC_C3(R8), Y4, Y4;     \
	VMULPS  Y3, Y4, Y4;            \
	VADDPS  KC_C2(R8), Y4, Y4;     \
	VMULPS  Y3, Y4, Y4;            \
	VADDPS  KC_C1(R8), Y4, Y4;     \
	VMULPS  Y3, Y4, Y4;            \
	VADDPS  KC_C0(R8), Y4, Y4;     \
	VSUBPS  Y4, Y13, Y13;          \
	VANDPS  Y15, Y13, Y13;         \
	VMULPS  Y13, Y0, Y0;           \
	VMULPS  Y13, Y1, Y1;           \
	VMULPS  Y13, Y2, Y2

// func fsrRangesAVX2(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)
//
// Whole-leaf short-range kernel, 8 neighbors per 256-bit vector, with the
// result of fsrRangesSSE bit for bit: the lane sums X5-X7 stay 128 bits
// wide, and each 8-wide product is folded into them low half first, then
// high half, so lane L still sums j≡L (mod 4) in index order. A span's
// trailing 4-block and its ≤3-element tail are 128-bit loads run through
// the same 256-bit macros (the upper half computes on zeros and is
// ignored), and the reduce, the tail and the store are fsrRangesSSE's.
//
// Registers as in fsrRangesSSE, Y for X where 8 lanes are live; CX counts
// 8-blocks.
TEXT ·fsrRangesAVX2(SB), NOSPLIT, $0-104
	MOVQ px+32(FP), R9
	MOVQ py+40(FP), R10
	MOVQ pz+48(FP), R11
	MOVQ kc+96(FP), R8
	XORQ BX, BX

target:
	CMPQ         BX, nt+24(FP)
	JGE          done
	MOVQ         lx+0(FP), AX
	VBROADCASTSS (AX)(BX*4), Y8
	MOVQ         ly+8(FP), AX
	VBROADCASTSS (AX)(BX*4), Y9
	MOVQ         lz+16(FP), AX
	VBROADCASTSS (AX)(BX*4), Y10
	VXORPS       X14, X14, X14
	MOVQ         ranges+56(FP), R12
	MOVQ         nr+64(FP), R13

span:
	TESTQ   R13, R13
	JZ      store
	DECQ    R13
	MOVLQSX 0(R12), SI
	MOVLQSX 4(R12), DI
	ADDQ    $8, R12
	SUBQ    SI, DI           // n
	CMPQ    DI, $4
	JL      tail             // n < 4: no lane sums to reduce
	VXORPS  X5, X5, X5
	VXORPS  X6, X6, X6
	VXORPS  X7, X7, X7
	MOVQ    DI, CX
	SHRQ    $3, CX
	JZ      block4

loop8:
	VMOVUPS (R9)(SI*4), Y0
	VMOVUPS (R10)(SI*4), Y1
	VMOVUPS (R11)(SI*4), Y2
	AVX_S
	AVX_CUT
	TESTL   AX, AX
	JZ      skip8
	AVX_F
	VADDPS       X0, X5, X5
	VEXTRACTF128 $1, Y0, X0
	VADDPS       X0, X5, X5
	VADDPS       X1, X6, X6
	VEXTRACTF128 $1, Y1, X1
	VADDPS       X1, X6, X6
	VADDPS       X2, X7, X7
	VEXTRACTF128 $1, Y2, X2
	VADDPS       X2, X7, X7

skip8:
	ADDQ $8, SI
	DECQ CX
	JNZ  loop8

block4:
	TESTQ   $4, DI
	JZ      reduce
	VMOVUPS (R9)(SI*4), X0
	VMOVUPS (R10)(SI*4), X1
	VMOVUPS (R11)(SI*4), X2
	ADDQ    $4, SI
	AVX_S
	AVX_CUT
	TESTL   $15, AX
	JZ      reduce
	AVX_F
	VADDPS  X0, X5, X5
	VADDPS  X1, X6, X6
	VADDPS  X2, X7, X7

reduce:
	// (l0+l2)+(l1+l3) of all three sums at once: transpose X5/X6/X7 into
	// rows T_L = [x_L, y_L, z_L, 0], then (T0+T2)+(T1+T3).
	VXORPS    X4, X4, X4
	VUNPCKLPS X6, X5, X0     // [x0 y0 x1 y1]
	VUNPCKHPS X6, X5, X1     // [x2 y2 x3 y3]
	VUNPCKLPS X4, X7, X2     // [z0 0 z1 0]
	VUNPCKHPS X4, X7, X3     // [z2 0 z3 0]
	VMOVLHPS  X2, X0, X5     // T0
	VMOVHLPS  X0, X2, X6     // T1
	VMOVLHPS  X3, X1, X7     // T2
	VMOVHLPS  X1, X3, X3     // T3
	VADDPS    X7, X5, X5
	VADDPS    X3, X6, X6
	VADDPS    X6, X5, X5
	VADDPS    X5, X14, X14

tail:
	MOVQ DI, CX
	ANDQ $3, CX              // t
	JZ   span
	CMPQ DI, $4
	JB   short
	ADDQ CX, SI              // r1: load the span's last four elements
	VMOVUPS -16(R9)(SI*4), X0
	VMOVUPS -16(R10)(SI*4), X1
	VMOVUPS -16(R11)(SI*4), X2
	JMP  tailbody

	// n = t < 4: place the t elements in the top t lanes from element
	// loads; the lanes below repeat an element and are dropped.
short:
	CMPQ CX, $2
	JB   short1
	JA   short3
	VMOVSD   (R9)(SI*4), X0
	VMOVLHPS X0, X0, X0      // [e0 e1 e0 e1]
	VMOVSD   (R10)(SI*4), X1
	VMOVLHPS X1, X1, X1
	VMOVSD   (R11)(SI*4), X2
	VMOVLHPS X2, X2, X2
	JMP      tailbody

short1:
	VBROADCASTSS (R9)(SI*4), X0
	VBROADCASTSS (R10)(SI*4), X1
	VBROADCASTSS (R11)(SI*4), X2
	JMP          tailbody

short3:
	VMOVSS  (R9)(SI*4), X0
	VMOVHPS 4(R9)(SI*4), X0, X0
	VSHUFPS $0xE0, X0, X0, X0 // [e0 e0 e1 e2]
	VMOVSS  (R10)(SI*4), X1
	VMOVHPS 4(R10)(SI*4), X1, X1
	VSHUFPS $0xE0, X1, X1, X1
	VMOVSS  (R11)(SI*4), X2
	VMOVHPS 4(R11)(SI*4), X2, X2
	VSHUFPS $0xE0, X2, X2, X2

tailbody:
	AVX_S
	AVX_CUT
	TESTL $15, AX
	JZ    span
	AVX_F

	// Rows T1..T3 of the transposed terms; add the last t in index order.
	VXORPS    X4, X4, X4
	VUNPCKLPS X1, X0, X5     // [x0 y0 x1 y1]
	VUNPCKHPS X1, X0, X0     // [x2 y2 x3 y3]
	VUNPCKLPS X4, X2, X6     // [z0 0 z1 0]
	VUNPCKHPS X4, X2, X2     // [z2 0 z3 0]
	VMOVHLPS  X5, X6, X6     // T1
	VMOVLHPS  X2, X0, X7     // T2
	VMOVHLPS  X0, X2, X2     // T3
	CMPQ      CX, $3
	JB        tail2
	VADDPS    X6, X14, X14

tail2:
	CMPQ   CX, $2
	JB     tail1
	VADDPS X7, X14, X14

tail1:
	VADDPS X2, X14, X14
	JMP    span

store:
	VMULPS   KC_GM(R8), X14, X14 // gm*S
	MOVQ     ax+72(FP), AX
	VADDSS   (AX)(BX*4), X14, X0
	VMOVSS   X0, (AX)(BX*4)
	VSHUFPS  $0x55, X14, X14, X1
	MOVQ     ay+80(FP), AX
	VADDSS   (AX)(BX*4), X1, X0
	VMOVSS   X0, (AX)(BX*4)
	VMOVHLPS X14, X14, X1
	MOVQ     az+88(FP), AX
	VADDSS   (AX)(BX*4), X1, X0
	VMOVSS   X0, (AX)(BX*4)
	INCQ     BX
	JMP      target

done:
	VZEROUPPER
	RET
