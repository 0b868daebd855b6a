//go:build amd64 && !purego

#include "textflag.h"

// func k2LanesAVX512(dst *[Lanes]float64, ctrl, cases *LaneTable, valid *uint8, groups int, lnFact, terms *float64, limit, rows int, bound float64) (next, stop int, ok bool)
//
// K2 of a run of groups lane groups under one bound: group g's eight
// tables, one per lane, are ctrl[g] and cases[g] (LaneTables, 864 bytes
// apart), valid[g] of their lanes valid (K1; more than eight counts as
// eight), and their first rows rows (R13) are scored — 27 for triples,
// 9 for embedded pair tables. The groups are scored in order, each in one
// pass over its rows, until one is not rejected: next is its index and dst
// its sums, every row's term added. If every group is rejected, next is
// groups and dst holds the last one's partial sums. stop is the row after
// which the last rejected group was given up on.
//
// Each row is read once, and its own counts choose how it is scored. If
// every valid lane's r0 | r1 is below termSide (no bit of Z11 set), its
// whole term is gathered from the term table at r0*64 + r1: the table
// holds K2Term's bits, so adding it is adding what the three-gather form
// computes. That is only exact while the LnFact table reaches
// 2*termSide - 1 = 127; for a shorter one Z11 has every bit set, so only
// an empty row, whose indices are 0, 0 and 1, takes it. Any other row
// first has every valid lane's max(r0, r1, r0 + r1 + 1), unsigned, checked
// against limit (a negative count is huge, and the sum cannot wrap unless
// r0 or r1 is past limit already): if one is past it the body returns
// ok = false having read no table entry for that row, and the Go body
// fails on the count the way Score does. Otherwise r0 (Y0), r1 (Y1) and
// r0+r1+1 (Y2) index three gathers from the LnFact table, and (a - b) - c
// is added to the lane sums (Z8) — the operations of the scalar k2, in its
// order, so each lane's sum is bit-identical to it. Rows past the one a
// group stops after are neither read nor checked: the counts are kept
// inside their class where they are made.
//
// Every term is >= +0, so a lane's sum never decreases: after each row
// the valid lanes whose sum is not above the broadcast bound are found
// (NGT_UQ, the complement of GT_OQ), and once there are none the group
// cannot score bound or better and the next begins. The gathers keep the
// constant mask K1 (copied, since a gather clears its mask): cutting the
// exceeded lanes out of the next row's gathers would make every gather
// wait on the previous row's compare. Loads, ors, shifts, maxima and adds
// of the counts are VEX-encoded, so bits 256..511 of Z0..Z3 are zero and
// the upper half of a 16-lane test or compare is masked off by K1.
TEXT ·k2LanesAVX512(SB), NOSPLIT, $0-97
	MOVQ  dst+0(FP), DI
	MOVQ  ctrl+8(FP), AX
	MOVQ  cases+16(FP), BX
	MOVQ  valid+24(FP), R9
	MOVQ  groups+32(FP), R14
	MOVQ  lnFact+40(FP), SI
	MOVQ  terms+48(FP), DX
	MOVQ  limit+56(FP), R8
	MOVQ  rows+64(FP), R13
	MOVQ  $0, stop+88(FP)
	MOVB  $1, ok+96(FP)
	VMOVQ R8, X7
	VPBROADCASTD X7, Z7 // limit in every lane
	MOVQ  $1, R10
	VMOVQ R10, X6
	VPBROADCASTD X6, Y6 // 1 in every lane
	MOVQ  $-64, R10     // the bits of a count at or past termSide
	MOVQ  $-1, R11
	CMPQ  R8, $127
	CMOVQLT R11, R10    // a table short of 127: every bit
	VMOVQ R10, X11
	VPBROADCASTD X11, Z11
	VBROADCASTSD bound+72(FP), Z10
	XORQ  R15, R15      // the group in hand

k2Group:
	MOVBQZX (R9)(R15*1), CX
	MOVQ    $8, R10
	CMPQ    CX, R10
	CMOVQGT R10, CX
	MOVQ    $1, R10
	SHLQ    CX, R10
	DECQ    R10
	KMOVW   R10, K1 // the group's valid lanes
	VPXORQ  Z8, Z8, Z8
	MOVQ    AX, R11
	MOVQ    BX, R12
	MOVQ    R13, CX

k2Row:
	VMOVDQU  (R11), Y0 // r0
	VMOVDQU  (R12), Y1 // r1
	VPOR     Y1, Y0, Y2
	VPTESTMD Z11, Z2, K1, K2 // valid lanes with a count past the term table
	KORTESTW K2, K2
	JNE      k2Wide
	VPSLLD   $6, Y0, Y2
	VPADDD   Y1, Y2, Y2 // r0*termSide + r1
	KMOVW    K1, K3
	VPXORQ   Z3, Z3, Z3
	VGATHERDPD (DX)(Y2*8), K3, Z3
	VADDPD   Z3, Z8, Z8

k2Next:
	VCMPPD   $0x0a, Z10, Z8, K1, K6 // sum not above bound
	ADDQ     $32, R11
	ADDQ     $32, R12
	KORTESTW K6, K6
	JEQ      k2Rejected
	DECQ     CX
	JNZ      k2Row

	// Not rejected: the group's scores, every row summed.
	VMOVUPD Z8, (DI)
	MOVQ    R15, next+80(FP)
	VZEROUPPER
	RET

k2Wide:
	VPADDD  Y1, Y0, Y2
	VPADDD  Y6, Y2, Y2  // r0 + r1 + 1
	VPMAXUD Y1, Y0, Y3
	VPMAXUD Y2, Y3, Y3
	VPCMPUD $6, Z7, Z3, K1, K2 // valid lanes with an index past limit
	KORTESTW K2, K2
	JNE     k2Decline
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
	JMP     k2Next

k2Rejected:
	LEAQ 1(R13), R10 // rows + 1 − the rows left
	SUBQ CX, R10
	MOVQ R10, stop+88(FP)
	INCQ R15
	ADDQ $864, AX
	ADDQ $864, BX
	CMPQ R15, R14
	JLT  k2Group
	VMOVUPD Z8, (DI)
	MOVQ    R15, next+80(FP)
	VZEROUPPER
	RET

k2Decline:
	MOVQ R15, next+80(FP)
	MOVB $0, ok+96(FP)
	VZEROUPPER
	RET
