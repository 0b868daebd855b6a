//go:build amd64 && !purego

#include "textflag.h"

// func k2LanesAVX512(dst *[Lanes]float64, ctrl, cases *LaneTable, lnFact *float64, limit, mask int) bool
//
// K2 of eight tables at once, one per lane. Row by row, in row order:
// the eight control counts r0 (Y0), the eight case counts r1 (Y1) and
// r0+r1+1 (Y2) index three gathers from the LnFact table, and
// (a - b) - c is added to the lane sums (Z8) — the operations of the
// scalar k2, in its order, so each lane's sum is bit-identical to it.
//
// A gather's opmask is K1 (the valid lanes) cut down to the lanes whose
// index is at most limit, compared unsigned so that a negative count fails
// too: an index outside the table is never dereferenced, whether it sits
// in an invalid lane (garbage by contract) or a valid one. K4 collects
// the masks; the return value says whether every valid lane kept every
// gather. Loads and adds of the counts are VEX-encoded, so bits 256..511
// of Z0..Z2 are zero and the upper half of a 16-lane compare is masked
// off by K1.
TEXT ·k2LanesAVX512(SB), NOSPLIT, $0-49
	MOVQ  dst+0(FP), DI
	MOVQ  ctrl+8(FP), AX
	MOVQ  cases+16(FP), BX
	MOVQ  lnFact+24(FP), SI
	MOVQ  limit+32(FP), R8
	MOVQ  mask+40(FP), R9
	KMOVW R9, K1
	KMOVW R9, K4
	VMOVQ R8, X7
	VPBROADCASTD X7, Z7 // limit in every lane
	MOVQ  $1, R10
	VMOVQ R10, X6
	VPBROADCASTD X6, Y6 // 1 in every lane
	VPXORQ Z8, Z8, Z8
	MOVQ  $27, CX

k2Row:
	VMOVDQU (AX), Y0
	VMOVDQU (BX), Y1
	VPADDD  Y1, Y0, Y2
	VPADDD  Y6, Y2, Y2
	VPCMPUD $2, Z7, Z2, K1, K2 // index <= limit
	VPCMPUD $2, Z7, Z0, K1, K3
	VPCMPUD $2, Z7, Z1, K1, K5
	KANDW   K2, K4, K4
	KANDW   K3, K4, K4
	KANDW   K5, K4, K4
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VGATHERDPD (SI)(Y2*8), K2, Z3
	VGATHERDPD (SI)(Y0*8), K3, Z4
	VGATHERDPD (SI)(Y1*8), K5, Z5
	VSUBPD  Z4, Z3, Z3
	VSUBPD  Z5, Z3, Z3
	VADDPD  Z3, Z8, Z8
	ADDQ    $32, AX
	ADDQ    $32, BX
	DECQ    CX
	JNZ     k2Row

	VMOVUPD Z8, (DI)
	KMOVW   K4, R10
	CMPQ    R10, R9
	SETEQ   ret+48(FP)
	VZEROUPPER
	RET
