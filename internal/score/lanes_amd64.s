//go:build amd64 && !purego

#include "textflag.h"

// func k2LanesAVX512(dst *[Lanes]float64, ctrl, cases *LaneTable, lnFact, terms *float64, limit, mask, rows int, bound float64) (stop int, ok bool)
//
// K2 of eight tables at once, one per lane, in two passes over the rows
// the tables have (R13): 27 for triples, the first 9 for embedded pair
// tables.
//
// The first checks the indices, with loads and maxima only: the largest
// control count r0 (Y9) and the largest case count r1 (Y10) of every
// lane, unsigned, so that a negative count is huge. Every index of a lane
// lies in 0..limit if max r0, max r1 and max r0 + max r1 + 1 do (the sum
// cannot wrap unless a maximum is past limit already), which holds for
// every table of a dataset the LnFact table is sized for (r0 + r1 <= N);
// for any valid lane (K1) where it does not, the body returns ok = false
// having read no table entry, whatever row the count sits in and
// wherever the second pass would have stopped, and the Go body scores the
// group or fails on the count the way Score does. Garbage in an invalid
// lane is masked off here and below.
//
// The second scores, in one of two loops. If every valid lane's max r0
// and max r1 are below 64 (termSide), each row's whole term is gathered
// from the term table at r0*64 + r1 (k2TermRow): the table holds K2Term's
// bits, so adding it is adding what the three-gather loop computes.
// Otherwise (k2Row) r0 (Y0), r1 (Y1) and r0+r1+1 (Y2) index three gathers
// from the LnFact table, and (a - b) - c is added to the lane sums (Z8) —
// the operations of the scalar k2, in its order, so each lane's sum is
// bit-identical to it. Every term is >= +0, so a lane's sum never
// decreases: after each row the valid lanes whose sum is not above the
// broadcast bound are found (NGT_UQ, the complement of GT_OQ), and once
// there are none the group cannot score bound or better and the loop is
// left, dst holding the partial sums. The gathers keep the constant mask
// K1 (copied, since a gather clears its mask): cutting the exceeded lanes
// out of the next row's gathers would make every gather wait on the
// previous row's compare. Loads, shifts, maxima and adds of the counts
// are VEX-encoded, so bits 256..511 of Z0..Z2 and Z9..Z12 are zero and
// the upper half of a 16-lane compare is masked off by K1.
TEXT ·k2LanesAVX512(SB), NOSPLIT, $0-81
	MOVQ  dst+0(FP), DI
	MOVQ  ctrl+8(FP), AX
	MOVQ  cases+16(FP), BX
	MOVQ  lnFact+24(FP), SI
	MOVQ  terms+32(FP), DX
	MOVQ  limit+40(FP), R8
	MOVQ  mask+48(FP), R9
	MOVQ  rows+56(FP), R13
	MOVQ  $0, stop+72(FP)
	MOVB  $0, ok+80(FP)
	KMOVW R9, K1
	VMOVQ R8, X7
	VPBROADCASTD X7, Z7 // limit in every lane
	MOVQ  $1, R10
	VMOVQ R10, X6
	VPBROADCASTD X6, Y6 // 1 in every lane

	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	MOVQ  AX, R11
	MOVQ  BX, R12
	MOVQ  R13, CX

k2Check:
	VPMAXUD (R11), Y9, Y9
	VPMAXUD (R12), Y10, Y10
	ADDQ    $32, R11
	ADDQ    $32, R12
	DECQ    CX
	JNZ     k2Check

	VPADDD  Y10, Y9, Y11
	VPADDD  Y6, Y11, Y11
	VPMAXUD Y10, Y9, Y9 // the larger of max r0 and max r1
	VPMAXUD Y11, Y9, Y12
	VPCMPUD $2, Z7, Z12, K1, K2 // all three <= limit
	KMOVW   K2, R10
	CMPQ    R10, R9
	JNE     k2Done
	MOVB    $1, ok+80(FP)

	VBROADCASTSD bound+64(FP), Z10
	VPXORQ Z8, Z8, Z8
	MOVQ   R13, CX
	MOVQ   $63, R10
	VMOVQ  R10, X7
	VPBROADCASTD X7, Z7 // termSide - 1 in every lane
	VPCMPUD $2, Z7, Z9, K1, K2 // max r0 and max r1 < termSide
	KMOVW   K2, R10
	CMPQ    R10, R9
	JNE     k2Row

k2TermRow:
	VMOVDQU (AX), Y0
	VPSLLD  $6, Y0, Y0
	VPADDD  (BX), Y0, Y0 // r0*termSide + r1
	KMOVW   K1, K2
	VPXORQ  Z3, Z3, Z3
	VGATHERDPD (DX)(Y0*8), K2, Z3
	VADDPD  Z3, Z8, Z8
	VCMPPD  $0x0a, Z10, Z8, K1, K6 // sum not above bound
	ADDQ    $32, AX
	ADDQ    $32, BX
	KORTESTW K6, K6
	JEQ     k2Rejected
	DECQ    CX
	JNZ     k2TermRow

	VMOVUPD Z8, (DI)
	VZEROUPPER
	RET

k2Row:
	VMOVDQU (AX), Y0
	VMOVDQU (BX), Y1
	VPADDD  Y1, Y0, Y2
	VPADDD  Y6, Y2, Y2
	KMOVW   K1, K2
	KMOVW   K1, K3
	KMOVW   K1, K5
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VGATHERDPD (SI)(Y2*8), K2, Z3
	VGATHERDPD (SI)(Y0*8), K3, Z4
	VGATHERDPD (SI)(Y1*8), K5, Z5
	VSUBPD  Z4, Z3, Z3
	VSUBPD  Z5, Z3, Z3
	VADDPD  Z3, Z8, Z8
	VCMPPD  $0x0a, Z10, Z8, K1, K6 // sum not above bound
	ADDQ    $32, AX
	ADDQ    $32, BX
	KORTESTW K6, K6
	JEQ     k2Rejected
	DECQ    CX
	JNZ     k2Row

	VMOVUPD Z8, (DI)
	VZEROUPPER
	RET

k2Rejected:
	VMOVUPD Z8, (DI)
	LEAQ    1(R13), R10 // rows + 1 − the rows left
	SUBQ    CX, R10
	MOVQ    R10, stop+72(FP)

k2Done:
	VZEROUPPER
	RET
