//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 VPOPCNTDQ bodies of the fused kernel's three loops, of the
// pair kernel's one and, at the end, of the lanes pass, which walks word
// by word with a SNP per lane. The others walk n >= 1 words in 8-word
// vectors under opmask K1: 0xFF for the full vectors and the low n%8 bits
// for a ragged last one, whose masked loads and stores touch nothing
// beyond word n (masked-out elements neither fault nor count). The nine
// pair planes of the fused kernel sit n words apart, so plane p of the
// current vector is at DX + p*R8 with R8 = 8n bytes; R9, R10 and R11 hold
// 3x, 5x and 7x that stride for the addressing modes.

// func cpuHasAVX512VPOPCNTDQ() bool
//
// True when the CPU has AVX512F and AVX512_VPOPCNTDQ and the OS saves
// the opmask and ZMM state (XCR0 bits 1, 2, 5, 6, 7).
TEXT ·cpuHasAVX512VPOPCNTDQ(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX // OSXSAVE
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  no
	BTL  $14, CX // AVX512_VPOPCNTDQ
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// STRIDES derives the plane strides from the word count in CX.
#define STRIDES \
	MOVQ CX, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9; \
	LEAQ (R8)(R8*4), R10; \
	LEAQ (R9)(R8*4), R11

// NEXTMASK sets K1 for the next vector of the CX words left and jumps
// to done when none are: all eight lanes while CX >= 8, else the low CX
// lanes, with CX raised to 8 so that the vector after it finds zero.
#define NEXTMASK(body, done) \
	CMPQ  CX, $8; \
	JGE   body; \
	TESTQ CX, CX; \
	JZ    done; \
	MOVQ  $1, R13; \
	SHLQ  CX, R13; \
	DECQ  R13; \
	KMOVW R13, K1; \
	MOVQ  $8, CX

// FOLD2 leaves in a the pairwise lane sums of a and b, interleaved:
// [a0+a1, b0+b1, a2+a3, b2+b3, a4+a5, b4+b5, a6+a7, b6+b7].
#define FOLD2(a, b) \
	VPUNPCKLQDQ b, a, Z2; \
	VPUNPCKHQDQ b, a, Z3; \
	VPADDQ      Z2, Z3, a

// FOLD128 leaves in a the sums of adjacent 128-bit lanes of a (in its
// lanes 0, 1) and of b (in its lanes 2, 3).
#define FOLD128(a, b) \
	VSHUFI64X2 $0x88, b, a, Z2; \
	VSHUFI64X2 $0xDD, b, a, Z3; \
	VPADDQ     Z2, Z3, a

// REDUCE8 sums each of eight accumulators across its lanes and leaves
// the eight totals, in order, as the 32-bit lanes of ylo (the low half
// of a).
#define REDUCE8(a, b, c, d, e, f, g, h, ylo) \
	FOLD2(a, b); \
	FOLD2(c, d); \
	FOLD2(e, f); \
	FOLD2(g, h); \
	FOLD128(a, c); \
	FOLD128(e, g); \
	FOLD128(a, e); \
	VPMOVQD a, ylo

// HSUM sums the eight lanes of a (low halves ya, xa) into reg.
#define HSUM(a, ya, xa, reg) \
	VEXTRACTI64X4 $1, a, Y2; \
	VPADDQ        Y2, ya, ya; \
	VEXTRACTI128  $1, ya, X2; \
	VPADDQ        X2, xa, xa; \
	VPSHUFD       $0xEE, xa, X2; \
	VPADDQ        X2, xa, xa; \
	VMOVQ         xa, reg

// func buildPairPlanesAVX512(dst, y0, y1, z0, z1 *uint64, n int)
//
// dst plane gy*3+gz = y[gy] & z[gz] over n words, genotype 2 by NOR.
TEXT ·buildPairPlanesAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DX
	MOVQ y0+8(FP), AX
	MOVQ y1+16(FP), BX
	MOVQ z0+24(FP), SI
	MOVQ z1+32(FP), DI
	MOVQ n+40(FP), CX
	STRIDES
	MOVQ  $0xFF, R13
	KMOVW R13, K1

buildLoop:
	NEXTMASK(buildBody, buildDone)

buildBody:
	VMOVDQU64.Z (AX), K1, Z0
	VMOVDQU64.Z (BX), K1, Z1
	VMOVDQU64.Z (SI), K1, Z4
	VMOVDQU64.Z (DI), K1, Z5
	VPTERNLOGQ  $0x11, Z1, Z0, Z3 // y2 = ^(y0|y1)
	VPTERNLOGQ  $0x11, Z5, Z4, Z6 // z2 = ^(z0|z1)
	VPANDQ      Z4, Z0, Z7
	VPANDQ      Z5, Z0, Z8
	VPANDQ      Z6, Z0, Z9
	VPANDQ      Z4, Z1, Z10
	VPANDQ      Z5, Z1, Z11
	VPANDQ      Z6, Z1, Z12
	VPANDQ      Z4, Z3, Z13
	VPANDQ      Z5, Z3, Z14
	VPANDQ      Z6, Z3, Z15
	VMOVDQU64   Z7, K1, (DX)
	VMOVDQU64   Z8, K1, (DX)(R8*1)
	VMOVDQU64   Z9, K1, (DX)(R8*2)
	VMOVDQU64   Z10, K1, (DX)(R9*1)
	VMOVDQU64   Z11, K1, (DX)(R8*4)
	VMOVDQU64   Z12, K1, (DX)(R10*1)
	VMOVDQU64   Z13, K1, (DX)(R9*2)
	VMOVDQU64   Z14, K1, (DX)(R11*1)
	VMOVDQU64   Z15, K1, (DX)(R8*8)
	ADDQ        $64, AX
	ADDQ        $64, BX
	ADDQ        $64, SI
	ADDQ        $64, DI
	ADDQ        $64, DX
	SUBQ        $8, CX
	JMP         buildLoop

buildDone:
	VZEROUPPER
	RET

// SUMPLANE adds the popcounts of one plane vector to acc.
#define SUMPLANE(mem, acc) \
	VPOPCNTQ.Z mem, K1, Z2; \
	VPADDQ     Z2, acc, acc

// func sumPairPlanesAVX512(sums *[PairPlanes]int32, planes *uint64, n int)
//
// sums[p] = popcount of plane p.
TEXT ·sumPairPlanesAVX512(SB), NOSPLIT, $0-24
	MOVQ sums+0(FP), SI
	MOVQ planes+8(FP), DX
	MOVQ n+16(FP), CX
	STRIDES
	MOVQ  $0xFF, R13
	KMOVW R13, K1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12

sumLoop:
	NEXTMASK(sumBody, sumDone)

sumBody:
	SUMPLANE((DX), Z4)
	SUMPLANE((DX)(R8*1), Z5)
	SUMPLANE((DX)(R8*2), Z6)
	SUMPLANE((DX)(R9*1), Z7)
	SUMPLANE((DX)(R8*4), Z8)
	SUMPLANE((DX)(R10*1), Z9)
	SUMPLANE((DX)(R9*2), Z10)
	SUMPLANE((DX)(R11*1), Z11)
	SUMPLANE((DX)(R8*8), Z12)
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  sumLoop

sumDone:
	REDUCE8(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Y4)
	VMOVDQU Y4, (SI)
	HSUM(Z12, Y12, X12, R13)
	MOVL    R13, 32(SI)
	VZEROUPPER
	RET

// CELLS counts one plane vector against x0 (Z0) and x1 (Z1).
#define CELLS(mem, acc0, acc1) \
	VMOVDQU64.Z mem, K1, Z2; \
	VPANDQ      Z2, Z0, Z3; \
	VPANDQ      Z2, Z1, Z2; \
	VPOPCNTQ    Z3, Z3; \
	VPOPCNTQ    Z2, Z2; \
	VPADDQ      Z3, acc0, acc0; \
	VPADDQ      Z2, acc1, acc1

// func accumulateFusedAVX512(ft *[Cells]int32, x0, x1, planes *uint64, sums *[PairPlanes]int32, n int)
//
// Counts the 18 cells of x genotypes 0 and 1 (Z4..Z12 and Z13..Z21, one
// accumulator per pair plane) and adds them to ft[0:18]; the nine cells
// of genotype 2 are sums[p] minus the two counted ones, which holds
// because x0 and x1 share no bit.
TEXT ·accumulateFusedAVX512(SB), NOSPLIT, $0-48
	MOVQ ft+0(FP), DI
	MOVQ x0+8(FP), AX
	MOVQ x1+16(FP), BX
	MOVQ planes+24(FP), DX
	MOVQ sums+32(FP), SI
	MOVQ n+40(FP), CX
	STRIDES
	MOVQ  $0xFF, R13
	KMOVW R13, K1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21

accLoop:
	NEXTMASK(accBody, accDone)

accBody:
	VMOVDQU64.Z (AX), K1, Z0
	VMOVDQU64.Z (BX), K1, Z1
	CELLS((DX), Z4, Z13)
	CELLS((DX)(R8*1), Z5, Z14)
	CELLS((DX)(R8*2), Z6, Z15)
	CELLS((DX)(R9*1), Z7, Z16)
	CELLS((DX)(R8*4), Z8, Z17)
	CELLS((DX)(R10*1), Z9, Z18)
	CELLS((DX)(R9*2), Z10, Z19)
	CELLS((DX)(R11*1), Z11, Z20)
	CELLS((DX)(R8*8), Z12, Z21)
	ADDQ $64, AX
	ADDQ $64, BX
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  accLoop

accDone:
	// Y4 = cells 0..7 of genotype 0, Y13 = cells 0..7 of genotype 1;
	// cell 8 of each goes through R13 and R14.
	REDUCE8(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Y4)
	REDUCE8(Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Y13)
	HSUM(Z12, Y12, X12, R13)
	VMOVDQA64 Z21, Z5
	HSUM(Z5, Y5, X5, R14)
	VMOVDQU (SI), Y1
	VPSUBD  Y4, Y1, Y1
	VPSUBD  Y13, Y1, Y1
	VPADDD  (DI), Y4, Y4
	VPADDD  36(DI), Y13, Y13
	VPADDD  72(DI), Y1, Y1
	VMOVDQU Y4, (DI)
	VMOVDQU Y13, 36(DI)
	VMOVDQU Y1, 72(DI)
	MOVL    32(SI), R12
	SUBL    R13, R12
	SUBL    R14, R12
	ADDL    R13, 32(DI)
	ADDL    R14, 68(DI)
	ADDL    R12, 104(DI)
	VZEROUPPER
	RET

// PAIRCELL counts one stored-genotype product of the pair primitive.
#define PAIRCELL(x, y, acc) \
	VPANDQ   x, y, Z2; \
	VPOPCNTQ Z2, Z2; \
	VPADDQ   Z2, acc, acc

// func pairLanesAVX512(lt *LaneTable, x, y *uint64, xmarg, ymarg *[2]int32, n, words, valid int)
//
// The pair tables of lanes 0..valid-1 of a lane table, lane l pairing the
// SNP whose planes start at x + 2l*words words with the one at y. Per
// lane, the popcounts of x0∧y0, x0∧y1, x1∧y0, x1∧y1 over the words go to
// one accumulator each (Z4..Z7), R8 the byte offset of the current vector
// in all four planes, and their totals to rows 0, 1, 3 and 4 of the
// lane's column. The x planes are the streamed side of a pair scan and
// dataset.Split lays consecutive SNPs' planes end to end, so each vector
// prefetches 2 KiB further down both x streams: the rest of this plane,
// or the lane after it. Once the split form outgrows L2 that is a quarter
// off the scan; prefetches never fault, so running off the last plane is
// harmless. The other five rows are then derived for all eight lanes at
// once from the four counted ones and the marginals: |x0| and |x1| of the
// valid lanes (the low and high halves of xmarg's qwords, loaded under
// the valid mask so nothing past the last lane is read), |y0|, |y1| and n
// broadcast.
TEXT ·pairLanesAVX512(SB), NOSPLIT, $0-64
	MOVQ lt+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), SI
	MOVQ words+48(FP), R9
	MOVQ valid+56(FP), R10
	MOVQ R9, R11
	SHLQ $3, R11 // bytes per plane
	LEAQ (SI)(R11*1), DX
	XORQ R12, R12

pairLane:
	LEAQ  (AX)(R11*1), BX
	MOVQ  R9, CX
	XORQ  R8, R8
	MOVQ  $0xFF, R13
	KMOVW R13, K1
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

pairLoop:
	NEXTMASK(pairBody, pairDone)

pairBody:
	PREFETCHT0  2048(AX)(R8*1)
	PREFETCHT0  2048(BX)(R8*1)
	VMOVDQU64.Z (AX)(R8*1), K1, Z0
	VMOVDQU64.Z (BX)(R8*1), K1, Z1
	VMOVDQU64.Z (SI)(R8*1), K1, Z8
	VMOVDQU64.Z (DX)(R8*1), K1, Z9
	PAIRCELL(Z0, Z8, Z4)
	PAIRCELL(Z0, Z9, Z5)
	PAIRCELL(Z1, Z8, Z6)
	PAIRCELL(Z1, Z9, Z7)
	ADDQ $64, R8
	SUBQ $8, CX
	JMP  pairLoop

pairDone:
	// Lanes of Z4 after the folds: the four totals, twice over.
	FOLD2(Z4, Z5)
	FOLD2(Z6, Z7)
	FOLD128(Z4, Z6)
	FOLD128(Z4, Z4)
	VPMOVQD Z4, Y4
	VMOVD   X4, (DI)(R12*4)
	VPEXTRD $1, X4, 32(DI)(R12*4)
	VPEXTRD $2, X4, 96(DI)(R12*4)
	VPEXTRD $3, X4, 128(DI)(R12*4)
	LEAQ    (AX)(R11*2), AX
	INCQ    R12
	CMPQ    R12, R10
	JLT     pairLane

	// Y0..Y3 = c00, c01, c10, c11; Y9, Y10 = |x0|, |x1|; Y11, Y12 = |y0|,
	// |y1|; Y13 = n.
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 96(DI), Y2
	VMOVDQU 128(DI), Y3
	MOVQ    R10, CX
	MOVQ    $1, R13
	SHLQ    CX, R13
	DECQ    R13
	KMOVW   R13, K2
	MOVQ    xmarg+24(FP), BX
	VMOVDQU64.Z (BX), K2, Z8
	VPMOVQD Z8, Y9
	VPSRLQ  $32, Z8, Z8
	VPMOVQD Z8, Y10
	MOVQ    ymarg+32(FP), BX
	VPBROADCASTD (BX), Y11
	VPBROADCASTD 4(BX), Y12
	VPBROADCASTD n+40(FP), Y13
	VPSUBD  Y0, Y9, Y5 // c02 = |x0| − c00 − c01
	VPSUBD  Y1, Y5, Y5
	VMOVDQU Y5, 64(DI)
	VPSUBD  Y2, Y10, Y5 // c12 = |x1| − c10 − c11
	VPSUBD  Y3, Y5, Y5
	VMOVDQU Y5, 160(DI)
	VPSUBD  Y0, Y11, Y6 // c20 = |y0| − c00 − c10
	VPSUBD  Y2, Y6, Y6
	VMOVDQU Y6, 192(DI)
	VPSUBD  Y1, Y12, Y7 // c21 = |y1| − c01 − c11
	VPSUBD  Y3, Y7, Y7
	VMOVDQU Y7, 224(DI)
	VPSUBD  Y9, Y13, Y13 // c22 = n − |x0| − |x1| − c20 − c21
	VPSUBD  Y10, Y13, Y13
	VPSUBD  Y6, Y13, Y13
	VPSUBD  Y7, Y13, Y13
	VMOVDQU Y13, 256(DI)
	VZEROUPPER
	RET

// LANECELLS counts one pair-plane word, broadcast to every lane, against
// the x0 (Z0) and x1 (Z1) words of eight SNPs.
#define LANECELLS(mem, acc0, acc1) \
	VPBROADCASTQ mem, Z2; \
	VPANDQ       Z2, Z0, Z3; \
	VPANDQ       Z2, Z1, Z2; \
	VPOPCNTQ     Z3, Z3; \
	VPOPCNTQ     Z2, Z2; \
	VPADDQ       Z3, acc0, acc0; \
	VPADDQ       Z2, acc1, acc1

// LANEROWS narrows the two accumulators of pair plane p to eight 32-bit
// counts each, rows p (ylo0) and 9+p (Y3) of a lane table, and derives
// row 18+p (Y2) as sums[p] minus both.
#define LANEROWS(p, acc0, ylo0, acc1) \
	VPMOVQD      acc0, ylo0; \
	VPMOVQD      acc1, Y3; \
	VPBROADCASTD 4*p(SI), Y2; \
	VPSUBD       ylo0, Y2, Y2; \
	VPSUBD       Y3, Y2, Y2

// LANESTORE stores the three rows of pair plane p.
#define LANESTORE(p, ylo0) \
	VMOVDQU ylo0, 32*p(DI); \
	VMOVDQU Y3, 32*(9+p)(DI); \
	VMOVDQU Y2, 32*(18+p)(DI)

// LANESET sets the three rows of pair plane p in the lane table, LANEADD
// adds to them.
#define LANESET(p, acc0, ylo0, acc1) \
	LANEROWS(p, acc0, ylo0, acc1); \
	LANESTORE(p, ylo0)

#define LANEADD(p, acc0, ylo0, acc1) \
	LANEROWS(p, acc0, ylo0, acc1); \
	VPADDD 32*p(DI), ylo0, ylo0; \
	VPADDD 32*(9+p)(DI), Y3, Y3; \
	VPADDD 32*(18+p)(DI), Y2, Y2; \
	LANESTORE(p, ylo0)

// func accumulateLanesAVX512(lt *LaneTable, xt, planes *uint64, sums *[PairPlanes]int32, n int, add bool)
//
// One combination per lane: per plane word, the x0 and x1 vectors of the
// x tile (128 bytes per word) meet each of the nine pair-plane words,
// broadcast, in the same 18 accumulators as accumulateFusedAVX512 — but a
// lane is a SNP here, not a word, so the counts go to the table as they
// stand — set there, or with add on top of what it held: no mask (short
// lanes are zero words of the tile), no lane reduction.
TEXT ·accumulateLanesAVX512(SB), NOSPLIT, $0-41
	MOVQ lt+0(FP), DI
	MOVQ xt+8(FP), AX
	MOVQ planes+16(FP), DX
	MOVQ sums+24(FP), SI
	MOVQ n+32(FP), CX
	MOVBQZX add+40(FP), R12
	STRIDES
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21

lanesLoop:
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	LANECELLS((DX), Z4, Z13)
	LANECELLS((DX)(R8*1), Z5, Z14)
	LANECELLS((DX)(R8*2), Z6, Z15)
	LANECELLS((DX)(R9*1), Z7, Z16)
	LANECELLS((DX)(R8*4), Z8, Z17)
	LANECELLS((DX)(R10*1), Z9, Z18)
	LANECELLS((DX)(R9*2), Z10, Z19)
	LANECELLS((DX)(R11*1), Z11, Z20)
	LANECELLS((DX)(R8*8), Z12, Z21)
	ADDQ $128, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  lanesLoop

	TESTQ R12, R12
	JNZ   lanesAdd
	LANESET(0, Z4, Y4, Z13)
	LANESET(1, Z5, Y5, Z14)
	LANESET(2, Z6, Y6, Z15)
	LANESET(3, Z7, Y7, Z16)
	LANESET(4, Z8, Y8, Z17)
	LANESET(5, Z9, Y9, Z18)
	LANESET(6, Z10, Y10, Z19)
	LANESET(7, Z11, Y11, Z20)
	LANESET(8, Z12, Y12, Z21)
	VZEROUPPER
	RET

lanesAdd:
	LANEADD(0, Z4, Y4, Z13)
	LANEADD(1, Z5, Y5, Z14)
	LANEADD(2, Z6, Y6, Z15)
	LANEADD(3, Z7, Y7, Z16)
	LANEADD(4, Z8, Y8, Z17)
	LANEADD(5, Z9, Y9, Z18)
	LANEADD(6, Z10, Y10, Z19)
	LANEADD(7, Z11, Y11, Z20)
	LANEADD(8, Z12, Y12, Z21)
	VZEROUPPER
	RET
