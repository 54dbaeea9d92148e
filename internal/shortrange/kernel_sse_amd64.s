#include "textflag.h"
#include "kernel_amd64.h"

// SSE_S: X0-X2 hold xj,yj,zj on entry; on exit they hold d = xj - xi and X3
// holds s = (dx*dx + dy*dy) + dz*dz. Clobbers X4.
#define SSE_S \
	SUBPS  X8, X0;  \
	SUBPS  X9, X1;  \
	SUBPS  X10, X2; \
	MOVAPS X0, X3;  \
	MULPS  X3, X3;  \
	MOVAPS X1, X4;  \
	MULPS  X4, X4;  \
	ADDPS  X4, X3;  \
	MOVAPS X2, X4;  \
	MULPS  X4, X4;  \
	ADDPS  X4, X3

// SSE_CUT: X15 = (s < rc2) lane mask, AX = its sign bits; ZF set when no
// lane is inside the cutoff (the early-out test).
#define SSE_CUT \
	MOVAPS   X3, X15;             \
	CMPPS    KC_RC2(R8), X15, $1; \
	MOVMSKPS X15, AX;             \
	TESTL    AX, AX

// SSE_NEWTON: y *= 1.5 - ((0.5x)*y)*y, with y in X12 and 0.5x in X11.
#define SSE_NEWTON \
	MOVAPS X11, X13;        \
	MULPS  X12, X13;        \
	MULPS  X12, X13;        \
	MOVAPS KC_1P5(R8), X4;  \
	SUBPS  X13, X4;         \
	MULPS  X4, X12

// SSE_F: from d (X0-X2), s (X3) and the cutoff mask (X15), leaves the pair
// terms d*f in X0-X2, where per lane
//
//	y0 = frombits(magic - bits(s+eps)>>1)      PSRLL/PSUBL on float lanes
//	y *= 1.5 - ((0.5*(s+eps))*y)*y             three times
//	f  = ((y*y)*y - poly5(s)) & mask           Horner, then the fsel select
//
// in exactly the association of the Go helpers rsqrt3/poly5 (no FMA), so
// each term is bit-identical to dx*Kernel.FSR(s). Clobbers X4, X11-X13.
#define SSE_F \
	MOVAPS X3, X11;           \
	ADDPS  KC_EPS(R8), X11;   \
	MOVAPS X11, X4;           \
	PSRLL  $1, X4;            \
	MOVAPS KC_MAGIC(R8), X12; \
	PSUBL  X4, X12;           \
	MULPS  KC_HALF(R8), X11;  \
	SSE_NEWTON;               \
	SSE_NEWTON;               \
	SSE_NEWTON;               \
	MOVAPS X12, X13;          \
	MULPS  X12, X13;          \
	MULPS  X12, X13;          \
	MOVAPS KC_C5(R8), X4;     \
	MULPS  X3, X4;            \
	ADDPS  KC_C4(R8), X4;     \
	MULPS  X3, X4;            \
	ADDPS  KC_C3(R8), X4;     \
	MULPS  X3, X4;            \
	ADDPS  KC_C2(R8), X4;     \
	MULPS  X3, X4;            \
	ADDPS  KC_C1(R8), X4;     \
	MULPS  X3, X4;            \
	ADDPS  KC_C0(R8), X4;     \
	SUBPS  X4, X13;           \
	ANDPS  X15, X13;          \
	MULPS  X13, X0;           \
	MULPS  X13, X1;           \
	MULPS  X13, X2

// func fsrRangesSSE(lx, ly, lz *float32, nt int64, px, py, pz *float32, ranges *[2]int32, nr int64, ax, ay, az, kc *float32)
//
// Whole-leaf short-range kernel, 4 neighbors per 128-bit SSE2 vector: for
// each target i, for each span [r0,r1) in order,
//
//	lanes  = Σ over full 4-blocks of d*f, lane L summing j≡L (mod 4)
//	S     += (l0+l2)+(l1+l3)               only when the span has a 4-block
//	S     += d*f for the n&3 tail neighbors, in index order
//
// then a[i] += gm*S. The tail is one more vector: over the span's last four
// elements when n ≥ 4 (the first 4-t lanes repeat block elements and are
// dropped), or built from element loads when n < 4, so nothing outside
// [r0,r1) is read. A vector with no lane inside r_cut skips SSE_F.
//
// Registers: X0-X2 d, X3 s, X4/X11-X13 temps, X5-X7 lane sums, X8-X10
// target broadcast, X14 S = [sx,sy,sz,0], X15 cutoff mask. R8 kc, R9-R11
// px/py/pz, R12/R13 span cursor/count, SI neighbor index, DI span length,
// CX block count then tail count, BX target index, AX scratch.
TEXT ·fsrRangesSSE(SB), NOSPLIT, $0-104
	MOVQ px+32(FP), R9
	MOVQ py+40(FP), R10
	MOVQ pz+48(FP), R11
	MOVQ kc+96(FP), R8
	XORQ BX, BX

target:
	CMPQ   BX, nt+24(FP)
	JGE    done
	MOVQ   lx+0(FP), AX
	MOVSS  (AX)(BX*4), X8
	SHUFPS $0x00, X8, X8
	MOVQ   ly+8(FP), AX
	MOVSS  (AX)(BX*4), X9
	SHUFPS $0x00, X9, X9
	MOVQ   lz+16(FP), AX
	MOVSS  (AX)(BX*4), X10
	SHUFPS $0x00, X10, X10
	XORPS  X14, X14
	MOVQ   ranges+56(FP), R12
	MOVQ   nr+64(FP), R13

span:
	TESTQ   R13, R13
	JZ      store
	DECQ    R13
	MOVLQSX 0(R12), SI
	MOVLQSX 4(R12), DI
	ADDQ    $8, R12
	SUBQ    SI, DI           // n
	MOVQ    DI, CX
	SHRQ    $2, CX
	JZ      tail             // n < 4: no lane sums to reduce
	XORPS   X5, X5
	XORPS   X6, X6
	XORPS   X7, X7

loop:
	MOVUPS (R9)(SI*4), X0
	MOVUPS (R10)(SI*4), X1
	MOVUPS (R11)(SI*4), X2
	SSE_S
	SSE_CUT
	JZ     skip
	SSE_F
	ADDPS  X0, X5
	ADDPS  X1, X6
	ADDPS  X2, X7

skip:
	ADDQ $4, SI
	DECQ CX
	JNZ  loop

	// Lane reduce (l0+l2)+(l1+l3) of all three sums at once: transpose
	// X5/X6/X7 into rows T_L = [x_L, y_L, z_L, 0], then (T0+T2)+(T1+T3).
	XORPS    X4, X4
	MOVAPS   X5, X0
	UNPCKLPS X6, X0          // [x0 y0 x1 y1]
	UNPCKHPS X6, X5          // [x2 y2 x3 y3]
	MOVAPS   X7, X1
	UNPCKLPS X4, X1          // [z0 0 z1 0]
	UNPCKHPS X4, X7          // [z2 0 z3 0]
	MOVAPS   X0, X2
	MOVLHPS  X1, X2          // T0
	MOVHLPS  X0, X1          // T1
	MOVAPS   X5, X3
	MOVLHPS  X7, X3          // T2
	MOVHLPS  X5, X7          // T3
	ADDPS    X3, X2
	ADDPS    X7, X1
	ADDPS    X1, X2
	ADDPS    X2, X14

tail:
	MOVQ DI, CX
	ANDQ $3, CX              // t
	JZ   span
	CMPQ DI, $4
	JB   short
	ADDQ CX, SI              // r1: load the span's last four elements
	MOVUPS -16(R9)(SI*4), X0
	MOVUPS -16(R10)(SI*4), X1
	MOVUPS -16(R11)(SI*4), X2
	JMP  tailbody

	// n = t < 4: place the t elements in the top t lanes from element
	// loads; the lanes below repeat an element and are dropped.
short:
	CMPQ CX, $2
	JB   short1
	JA   short3
	MOVSD   (R9)(SI*4), X0
	MOVLHPS X0, X0           // [e0 e1 e0 e1]
	MOVSD   (R10)(SI*4), X1
	MOVLHPS X1, X1
	MOVSD   (R11)(SI*4), X2
	MOVLHPS X2, X2
	JMP     tailbody

short1:
	MOVSS  (R9)(SI*4), X0
	SHUFPS $0x00, X0, X0     // [e0 e0 e0 e0]
	MOVSS  (R10)(SI*4), X1
	SHUFPS $0x00, X1, X1
	MOVSS  (R11)(SI*4), X2
	SHUFPS $0x00, X2, X2
	JMP    tailbody

short3:
	MOVSS  (R9)(SI*4), X0
	MOVHPS 4(R9)(SI*4), X0
	SHUFPS $0xE0, X0, X0     // [e0 e0 e1 e2]
	MOVSS  (R10)(SI*4), X1
	MOVHPS 4(R10)(SI*4), X1
	SHUFPS $0xE0, X1, X1
	MOVSS  (R11)(SI*4), X2
	MOVHPS 4(R11)(SI*4), X2
	SHUFPS $0xE0, X2, X2

tailbody:
	SSE_S
	SSE_CUT
	JZ     span
	SSE_F

	// Rows T1..T3 of the transposed terms; add the last t in index order.
	XORPS    X4, X4
	MOVAPS   X0, X5
	UNPCKLPS X1, X5          // [x0 y0 x1 y1]
	UNPCKHPS X1, X0          // [x2 y2 x3 y3]
	MOVAPS   X2, X6
	UNPCKLPS X4, X6          // [z0 0 z1 0]
	UNPCKHPS X4, X2          // [z2 0 z3 0]
	MOVHLPS  X5, X6          // T1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7          // T2
	MOVHLPS  X0, X2          // T3
	CMPQ     CX, $3
	JB       tail2
	ADDPS    X6, X14

tail2:
	CMPQ  CX, $2
	JB    tail1
	ADDPS X7, X14

tail1:
	ADDPS X2, X14
	JMP   span

store:
	MULPS  KC_GM(R8), X14    // gm*S
	MOVQ   ax+72(FP), AX
	MOVSS  (AX)(BX*4), X0
	ADDSS  X14, X0
	MOVSS  X0, (AX)(BX*4)
	MOVAPS X14, X1
	SHUFPS $0x55, X1, X1
	MOVQ   ay+80(FP), AX
	MOVSS  (AX)(BX*4), X0
	ADDSS  X1, X0
	MOVSS  X0, (AX)(BX*4)
	MOVHLPS X14, X1
	MOVQ   az+88(FP), AX
	MOVSS  (AX)(BX*4), X0
	ADDSS  X1, X0
	MOVSS  X0, (AX)(BX*4)
	INCQ   BX
	JMP    target

done:
	RET
