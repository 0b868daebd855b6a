//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 VPOPCNTDQ bodies of the fused kernel's three loops, of the
// pair kernel's one and, at the end, of the lanes pass's block entry,
// which walks word by word with a SNP per lane. The others walk n >= 1 words in 8-word
// vectors under opmask K1: 0xFF for the full vectors and the low n%8 bits
// for a ragged last one, whose masked loads and stores touch nothing
// beyond word n (masked-out elements neither fault nor count). The nine
// pair planes of the fused kernel sit n words apart, so plane p of the
// current vector is at DX + p*R8 with R8 = 8n bytes; R9, R10 and R11 hold
// 3x, 5x and 7x that stride for the addressing modes.

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

// The lanes pass's block entry walks word by word with a SNP per lane:
// per word, the x0 and x1 vectors of the x tile (128 bytes per word, R9
// the word index) meet the words of an s, y or z plane, broadcast. A
// short chunk's missing lanes are zero words of the tile, so there is no
// mask and no lane reduction; each accumulator narrows to one row of
// eight 32-bit counts, set or (add) added to what the row held.

// XCELL counts x ∧ s for the eight lanes, s broadcast.
#define XCELL(s, x, acc) \
	VPANDQ   s, x, Z4; \
	VPOPCNTQ Z4, Z4; \
	VPADDQ   Z4, acc, acc

// TRIPLECELL counts x ∧ y ∧ z for the eight lanes: y broadcast into Z4,
// ANDed with the lanes' x word and the broadcast z in one ternary op.
#define TRIPLECELL(y, x, z, acc) \
	VPBROADCASTQ y, Z4; \
	VPTERNLOGQ   $0x80, z, x, Z4; \
	VPOPCNTQ     Z4, Z4; \
	VPADDQ       Z4, acc, acc

// func blockLanesAVX512(bank []LaneTable, xc []XCounts, xt, planes []uint64, pairs []lanePair, snps []int32, n, words int, add, derive bool, xmarg [][2]int32, yz []LaneTable)
//
// One word tile of one class through a LaneList, in one call: first the
// four cells x_a ∧ s_b of each SNP s of snps, in Z8..Z11 in the order
// 2a+b, to the rows of xc[i]; then the eight cells x_a ∧ y_b ∧ z_c of
// each pair (y, z), in Z8..Z15 in the order 4a+2b+c, to rows 0, 1, 3, 4,
// 9, 10, 12 and 13 of bank[j]. planes starts at the tile's first word of
// the class's first plane, so plane g of SNP s of the tile starts
// (2s+g)·words words on (R11 the bytes of one plane). With derive, the
// pass over a pair then derives its other 19 rows from the counted ones,
// still in Y8..Y15 — T000, T001, T010, T011, T100, T101, T110, T111 —
// its y and z slots of xc (XY at R10, XZ at R12), its column of yz (AX;
// rows 32 bytes apart), and |x0|, |x1| of the lanes in the low halves of
// Z16 and Z17, loaded once a call under the low nx bits of K2 so nothing
// past the last lane is read (a lane past it is no SNP: |x0| = |x1| = 0).
// A lanePair is six int32s: y, z, ySlot, zSlot, table, col.
TEXT ·blockLanesAVX512(SB), NOSPLIT, $0-216
	CMPB        derive+161(FP), $0
	JEQ         blockStart
	MOVQ        xmarg_len+176(FP), CX
	MOVQ        $1, R13
	SHLQ        CX, R13
	DECQ        R13
	KMOVW       R13, K2
	MOVQ        xmarg_base+168(FP), BX
	VMOVDQU64.Z (BX), K2, Z8
	VPMOVQD     Z8, Y9
	VMOVDQA64   Z9, Z16
	VPSRLQ      $32, Z8, Z8
	VPMOVQD     Z8, Y9
	VMOVDQA64   Z9, Z17

blockStart:
	MOVQ    xt_base+48(FP), SI
	MOVQ    planes_base+72(FP), R8
	MOVQ    n+144(FP), CX
	MOVQ    words+152(FP), R11
	SHLQ    $3, R11
	MOVQ    xc_base+24(FP), DI
	MOVQ    snps_base+120(FP), R10
	XORQ    R13, R13

snpNext:
	CMPQ   R13, snps_len+128(FP)
	JGE    pairStart
	MOVL   (R10)(R13*4), BX
	IMULQ  R11, BX
	LEAQ   (R8)(BX*2), BX // s0
	LEAQ   (BX)(R11*1), DX // s1
	MOVQ   SI, AX
	XORQ   R9, R9
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

xLoop:
	VMOVDQU64    (AX), Z0
	VMOVDQU64    64(AX), Z1
	VPBROADCASTQ (BX)(R9*8), Z2
	VPBROADCASTQ (DX)(R9*8), Z3
	XCELL(Z2, Z0, Z8)
	XCELL(Z3, Z0, Z9)
	XCELL(Z2, Z1, Z10)
	XCELL(Z3, Z1, Z11)
	ADDQ         $128, AX
	INCQ         R9
	CMPQ         R9, CX
	JLT          xLoop

	VPMOVQD Z8, Y8
	VPMOVQD Z9, Y9
	VPMOVQD Z10, Y10
	VPMOVQD Z11, Y11
	CMPB    add+160(FP), $0
	JEQ     xSet
	VPADDD  (DI), Y8, Y8
	VPADDD  32(DI), Y9, Y9
	VPADDD  64(DI), Y10, Y10
	VPADDD  96(DI), Y11, Y11

xSet:
	VMOVDQU Y8, (DI)
	VMOVDQU Y9, 32(DI)
	VMOVDQU Y10, 64(DI)
	VMOVDQU Y11, 96(DI)
	ADDQ    $128, DI
	INCQ    R13
	JMP     snpNext

pairStart:
	MOVQ bank_base+0(FP), DI
	XORQ R13, R13

pairNext:
	CMPQ   R13, pairs_len+104(FP)
	JGE    blockDone
	IMUL3Q $24, R13, R14
	ADDQ   pairs_base+96(FP), R14
	MOVL   (R14), BX
	IMULQ  R11, BX
	LEAQ   (R8)(BX*2), BX // y0
	LEAQ   (BX)(R11*1), DX // y1
	MOVL   4(R14), R10
	IMULQ  R11, R10
	LEAQ   (R8)(R10*2), R10 // z0
	LEAQ   (R10)(R11*1), R12 // z1
	MOVQ   SI, AX
	XORQ   R9, R9
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

tripleLoop:
	VMOVDQU64    (AX), Z0
	VMOVDQU64    64(AX), Z1
	VPBROADCASTQ (R10)(R9*8), Z2
	VPBROADCASTQ (R12)(R9*8), Z3
	TRIPLECELL((BX)(R9*8), Z0, Z2, Z8)
	TRIPLECELL((BX)(R9*8), Z0, Z3, Z9)
	TRIPLECELL((DX)(R9*8), Z0, Z2, Z10)
	TRIPLECELL((DX)(R9*8), Z0, Z3, Z11)
	TRIPLECELL((BX)(R9*8), Z1, Z2, Z12)
	TRIPLECELL((BX)(R9*8), Z1, Z3, Z13)
	TRIPLECELL((DX)(R9*8), Z1, Z2, Z14)
	TRIPLECELL((DX)(R9*8), Z1, Z3, Z15)
	ADDQ         $128, AX
	INCQ         R9
	CMPQ         R9, CX
	JLT          tripleLoop

	VPMOVQD Z8, Y8
	VPMOVQD Z9, Y9
	VPMOVQD Z10, Y10
	VPMOVQD Z11, Y11
	VPMOVQD Z12, Y12
	VPMOVQD Z13, Y13
	VPMOVQD Z14, Y14
	VPMOVQD Z15, Y15
	CMPB    add+160(FP), $0
	JEQ     tripleSet
	VPADDD  (DI), Y8, Y8
	VPADDD  32(DI), Y9, Y9
	VPADDD  96(DI), Y10, Y10
	VPADDD  128(DI), Y11, Y11
	VPADDD  288(DI), Y12, Y12
	VPADDD  320(DI), Y13, Y13
	VPADDD  384(DI), Y14, Y14
	VPADDD  416(DI), Y15, Y15

tripleSet:
	VMOVDQU Y8, (DI)
	VMOVDQU Y9, 32(DI)
	VMOVDQU Y10, 96(DI)
	VMOVDQU Y11, 128(DI)
	VMOVDQU Y12, 288(DI)
	VMOVDQU Y13, 320(DI)
	VMOVDQU Y14, 384(DI)
	VMOVDQU Y15, 416(DI)
	CMPB    derive+161(FP), $0
	JEQ     pairDone
	MOVL    8(R14), R10
	SHLQ    $7, R10
	ADDQ    xc_base+24(FP), R10 // XY
	MOVL    12(R14), R12
	SHLQ    $7, R12
	ADDQ    xc_base+24(FP), R12 // XZ
	MOVL    16(R14), AX
	IMUL3Q  $864, AX, AX
	MOVL    20(R14), BX
	LEAQ    (AX)(BX*4), AX
	ADDQ    yz_base+192(FP), AX // the (y, z) column

	// x genotype 0. Rows 2, 5, 6, 7 and 8 stay in Y0, Y1, Y2, Y3 and Y6
	// for the genotype-2 rows below.
	VMOVDQU (R10), Y4   // XY[0][0]
	VMOVDQU 32(R10), Y5 // XY[0][1]
	VPSUBD  Y8, Y4, Y0  // row 2 = XY[0][0] − T000 − T001
	VPSUBD  Y9, Y0, Y0
	VMOVDQU Y0, 64(DI)
	VPSUBD  Y10, Y5, Y1 // row 5 = XY[0][1] − T010 − T011
	VPSUBD  Y11, Y1, Y1
	VMOVDQU Y1, 160(DI)
	VMOVDQU (R12), Y2   // row 6 = XZ[0][0] − T000 − T010
	VPSUBD  Y8, Y2, Y2
	VPSUBD  Y10, Y2, Y2
	VMOVDQU Y2, 192(DI)
	VMOVDQU 32(R12), Y3 // row 7 = XZ[0][1] − T001 − T011
	VPSUBD  Y9, Y3, Y3
	VPSUBD  Y11, Y3, Y3
	VMOVDQU Y3, 224(DI)
	VPSUBD  Z4, Z16, Z6 // row 8 = |x0| − XY[0][0] − XY[0][1] − row 6 − row 7
	VPSUBD  Y5, Y6, Y6
	VPSUBD  Y2, Y6, Y6
	VPSUBD  Y3, Y6, Y6
	VMOVDQU Y6, 256(DI)

	// Genotype-2 rows of counted (y, z) cells: YZ[b][c] − T0bc − T1bc.
	VPBROADCASTD (AX), Y7    // row 18
	VPSUBD       Y8, Y7, Y7
	VPSUBD       Y12, Y7, Y7
	VMOVDQU      Y7, 576(DI)
	VPBROADCASTD 32(AX), Y7  // row 19
	VPSUBD       Y9, Y7, Y7
	VPSUBD       Y13, Y7, Y7
	VMOVDQU      Y7, 608(DI)
	VPBROADCASTD 96(AX), Y7  // row 21
	VPSUBD       Y10, Y7, Y7
	VPSUBD       Y14, Y7, Y7
	VMOVDQU      Y7, 672(DI)
	VPBROADCASTD 128(AX), Y7 // row 22
	VPSUBD       Y11, Y7, Y7
	VPSUBD       Y15, Y7, Y7
	VMOVDQU      Y7, 704(DI)

	// x genotype 1, each derived row followed by the genotype-2 row of
	// its (b, c): YZ[b][c] − (row of x genotype 0 + row of genotype 1).
	VMOVDQU      64(R10), Y4  // XY[1][0]
	VMOVDQU      96(R10), Y5  // XY[1][1]
	VPSUBD       Y12, Y4, Y7  // row 11 = XY[1][0] − T100 − T101
	VPSUBD       Y13, Y7, Y7
	VMOVDQU      Y7, 352(DI)
	VPADDD       Y7, Y0, Y0
	VPBROADCASTD 64(AX), Y7   // row 20
	VPSUBD       Y0, Y7, Y7
	VMOVDQU      Y7, 640(DI)
	VPSUBD       Y14, Y5, Y7  // row 14 = XY[1][1] − T110 − T111
	VPSUBD       Y15, Y7, Y7
	VMOVDQU      Y7, 448(DI)
	VPADDD       Y7, Y1, Y1
	VPBROADCASTD 160(AX), Y7  // row 23
	VPSUBD       Y1, Y7, Y7
	VMOVDQU      Y7, 736(DI)
	VPSUBD       Z4, Z17, Z0  // row 17 = |x1| − XY[1][0] − XY[1][1] − row 15 − row 16
	VPSUBD       Y5, Y0, Y0
	VMOVDQU      64(R12), Y1  // row 15 = XZ[1][0] − T100 − T110
	VPSUBD       Y12, Y1, Y1
	VPSUBD       Y14, Y1, Y1
	VMOVDQU      Y1, 480(DI)
	VPSUBD       Y1, Y0, Y0
	VPADDD       Y1, Y2, Y2
	VPBROADCASTD 192(AX), Y7  // row 24
	VPSUBD       Y2, Y7, Y7
	VMOVDQU      Y7, 768(DI)
	VMOVDQU      96(R12), Y1  // row 16 = XZ[1][1] − T101 − T111
	VPSUBD       Y13, Y1, Y1
	VPSUBD       Y15, Y1, Y1
	VMOVDQU      Y1, 512(DI)
	VPSUBD       Y1, Y0, Y0
	VMOVDQU      Y0, 544(DI)
	VPADDD       Y1, Y3, Y3
	VPBROADCASTD 224(AX), Y7  // row 25
	VPSUBD       Y3, Y7, Y7
	VMOVDQU      Y7, 800(DI)
	VPADDD       Y0, Y6, Y6
	VPBROADCASTD 256(AX), Y7  // row 26
	VPSUBD       Y6, Y7, Y7
	VMOVDQU      Y7, 832(DI)

pairDone:
	ADDQ $864, DI
	INCQ R13
	JMP  pairNext

blockDone:
	VZEROUPPER
	RET
