//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 bodies of the by-sample count: the 64 x 64 bit transpose that
// turns drawn case planes into sample rows, and the bit-sliced counter
// that counts a cell's rows for 512 permutations per vector. AVX512F and
// VPOPCNTDQ only, the two the package's probe checks: opmasks are moved
// and tested as words, and no byte or word element operation, and no
// EVEX form on xmm or ymm registers, is used.

// Dwords 0..15, the lane numbers.
DATA laneNum<>+0(SB)/8, $0x0000000100000000
DATA laneNum<>+8(SB)/8, $0x0000000300000002
DATA laneNum<>+16(SB)/8, $0x0000000500000004
DATA laneNum<>+24(SB)/8, $0x0000000700000006
DATA laneNum<>+32(SB)/8, $0x0000000900000008
DATA laneNum<>+40(SB)/8, $0x0000000b0000000a
DATA laneNum<>+48(SB)/8, $0x0000000d0000000c
DATA laneNum<>+56(SB)/8, $0x0000000f0000000e
GLOBL laneNum<>(SB), RODATA|NOPTR, $64

// Dwords 16..31.
DATA laneNumHi<>+0(SB)/8, $0x0000001100000010
DATA laneNumHi<>+8(SB)/8, $0x0000001300000012
DATA laneNumHi<>+16(SB)/8, $0x0000001500000014
DATA laneNumHi<>+24(SB)/8, $0x0000001700000016
DATA laneNumHi<>+32(SB)/8, $0x0000001900000018
DATA laneNumHi<>+40(SB)/8, $0x0000001b0000001a
DATA laneNumHi<>+48(SB)/8, $0x0000001d0000001c
DATA laneNumHi<>+56(SB)/8, $0x0000001f0000001e
GLOBL laneNumHi<>(SB), RODATA|NOPTR, $64

// The transpose is transpose64's six rounds, run on eight tiles at once:
// a 64-byte line of a plane holds eight consecutive words of it, one word
// of each of eight tiles, so with plane k's line in a register, lane t is
// word k of tile t and every round is lane-wise between two registers.
// Round s pairs word k with word k+s: new k+s = m ? k>>s : k+s, new k =
// m ? k : (k+s)<<s, under m, the low s bits of every 2s.

// XROUND is a round between registers a (words k) and b (words k+s).
#define XROUND(s, m, a, b) \
	VPSRLQ     $s, a, Z8; \
	VPSLLQ     $s, b, Z9; \
	VPTERNLOGQ $0xD8, m, Z8, b; \
	VPTERNLOGQ $0xE4, m, Z9, a

// ROUNDS3 runs three rounds s, s/2, s/4 on words Z0..Z7 whose word
// numbers step by 4s/8 from register to register.
#define ROUNDS3(s0, m0, s1, m1, s2, m2) \
	XROUND(s0, m0, Z0, Z4); \
	XROUND(s0, m0, Z1, Z5); \
	XROUND(s0, m0, Z2, Z6); \
	XROUND(s0, m0, Z3, Z7); \
	XROUND(s1, m1, Z0, Z2); \
	XROUND(s1, m1, Z1, Z3); \
	XROUND(s1, m1, Z4, Z6); \
	XROUND(s1, m1, Z5, Z7); \
	XROUND(s2, m2, Z0, Z1); \
	XROUND(s2, m2, Z2, Z3); \
	XROUND(s2, m2, Z4, Z5); \
	XROUND(s2, m2, Z6, Z7)

// COPY8 moves eight words of a transposed tile, rows off/64 .. off/64+7
// of the lane at AX, to eight consecutive rows from DX, R8 bytes apart
// (R13, R14, R15: three, five and seven rows), and steps DX past them.
#define COPY8(off) \
	MOVQ off+0(AX), BX; \
	MOVQ BX, (DX); \
	MOVQ off+64(AX), BX; \
	MOVQ BX, (DX)(R8*1); \
	MOVQ off+128(AX), BX; \
	MOVQ BX, (DX)(R8*2); \
	MOVQ off+192(AX), BX; \
	MOVQ BX, (DX)(R13*1); \
	MOVQ off+256(AX), BX; \
	MOVQ BX, (DX)(R8*4); \
	MOVQ off+320(AX), BX; \
	MOVQ BX, (DX)(R14*1); \
	MOVQ off+384(AX), BX; \
	MOVQ BX, (DX)(R13*2); \
	MOVQ off+448(AX), BX; \
	MOVQ BX, (DX)(R15*1); \
	LEAQ (DX)(R8*8), DX

// func transposeAVX512(rows *uint64, stride int, slab *uint64, pstride, words int)
//
// Tile w is word w of the 64 planes, pstride bytes apart from slab; its
// transpose goes to rows 64w..64w+63, stride bytes apart from rows. A
// group of eight tiles (words 8g..8g+7) is done in three passes through
// 4 KiB of stack, row k of the group's tiles at 64k(SP), lane t for tile
// 8g+t:
//   1. for k = 0..7, load the lines of planes k, k+8, …, k+56 and run
//      rounds 32, 16 and 8 among them;
//   2. for each eight rows 8i..8i+7, run rounds 4, 2 and 1;
//   3. copy each tile's lane out to its 64 rows, a word to a row.
// A line past a plane's last word reads the pad after it, inside the
// slab (the last plane's too: the caller slices it to 63·pstride/8 +
// words rounded up to 8); those tiles are not copied out.
TEXT ·transposeAVX512(SB), $4096-40
	MOVQ rows+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ slab+16(FP), SI
	MOVQ pstride+24(FP), R9
	MOVQ words+32(FP), CX

	MOVQ         $0x00000000ffffffff, AX
	VPBROADCASTQ AX, Z10
	MOVQ         $0x0000ffff0000ffff, AX
	VPBROADCASTQ AX, Z11
	MOVQ         $0x00ff00ff00ff00ff, AX
	VPBROADCASTQ AX, Z12
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	VPBROADCASTQ AX, Z13
	MOVQ         $0x3333333333333333, AX
	VPBROADCASTQ AX, Z14
	MOVQ         $0x5555555555555555, AX
	VPBROADCASTQ AX, Z15
	MOVQ         R9, R10
	SHLQ         $3, R10 // eight planes
	LEAQ         (R10)(R10*2), R11 // 24 planes
	MOVQ         R8, R12
	SHLQ         $6, R12 // a tile's 64 rows

group:
	MOVQ SI, AX
	LEAQ 0(SP), R13
	MOVQ $8, DX

planes:
	LEAQ      (AX)(R10*4), BX
	VMOVDQU64 (AX), Z0
	VMOVDQU64 (AX)(R10*1), Z1
	VMOVDQU64 (AX)(R10*2), Z2
	VMOVDQU64 (AX)(R11*1), Z3
	VMOVDQU64 (BX), Z4
	VMOVDQU64 (BX)(R10*1), Z5
	VMOVDQU64 (BX)(R10*2), Z6
	VMOVDQU64 (BX)(R11*1), Z7
	ROUNDS3(32, Z10, 16, Z11, 8, Z12)
	VMOVDQU64 Z0, (R13)
	VMOVDQU64 Z1, 512(R13)
	VMOVDQU64 Z2, 1024(R13)
	VMOVDQU64 Z3, 1536(R13)
	VMOVDQU64 Z4, 2048(R13)
	VMOVDQU64 Z5, 2560(R13)
	VMOVDQU64 Z6, 3072(R13)
	VMOVDQU64 Z7, 3584(R13)
	ADDQ      R9, AX
	ADDQ      $64, R13
	DECQ      DX
	JNZ       planes

	LEAQ 0(SP), R13
	MOVQ $8, DX

eights:
	VMOVDQU64 (R13), Z0
	VMOVDQU64 64(R13), Z1
	VMOVDQU64 128(R13), Z2
	VMOVDQU64 192(R13), Z3
	VMOVDQU64 256(R13), Z4
	VMOVDQU64 320(R13), Z5
	VMOVDQU64 384(R13), Z6
	VMOVDQU64 448(R13), Z7
	ROUNDS3(4, Z13, 2, Z14, 1, Z15)
	VMOVDQU64 Z0, (R13)
	VMOVDQU64 Z1, 64(R13)
	VMOVDQU64 Z2, 128(R13)
	VMOVDQU64 Z3, 192(R13)
	VMOVDQU64 Z4, 256(R13)
	VMOVDQU64 Z5, 320(R13)
	VMOVDQU64 Z6, 384(R13)
	VMOVDQU64 Z7, 448(R13)
	ADDQ      $512, R13
	DECQ      DX
	JNZ       eights

	// The group's tiles, min(8, words left): lane t of row k goes to row
	// 64(8g+t) + k; each tile's last row leaves DX at the next tile's first.
	MOVQ CX, BX
	CMPQ BX, $8
	JLE  copy
	MOVQ $8, BX

copy:
	LEAQ 0(SP), AX
	LEAQ (AX)(BX*8), R11 // past the last lane
	MOVQ DI, DX
	LEAQ (R8)(R8*2), R13
	LEAQ (R8)(R8*4), R14
	LEAQ (R13)(R8*4), R15

tiles:
	COPY8(0)
	COPY8(512)
	COPY8(1024)
	COPY8(1536)
	COPY8(2048)
	COPY8(2560)
	COPY8(3072)
	COPY8(3584)
	ADDQ $8, AX
	CMPQ AX, R11
	JNE  tiles

	LEAQ (R10)(R10*2), R11
	MOVQ DX, DI
	ADDQ $64, SI
	SUBQ $8, CX
	JGT  group
	VZEROUPPER
	RET

// The counter keeps a bit-sliced count per bit of a vector: level l holds
// bit l of every lane's count. Levels 0..3 (ones, twos, fours, eights)
// are Z2..Z5 and take sixteen vectors at a time through a Harley–Seal
// tree of carry-save adders; the sixteens it carries out ripple through
// levels 4..19, Z15..Z30, as far as the cell's count can reach. Z0 and Z1
// are the vectors loaded, Z6..Z11 the tree's partial carries, Z12 and Z13
// the ripple's carry, Y14 the gather's indices and Z31 the row words r
// they are scaled by.

// CSA adds a and b into l: l gets the sum bit, h the carry.
#define CSA(h, l, a, b) \
	VMOVDQA64  a, h; \
	VPTERNLOGQ $0xE8, b, l, h; \
	VPTERNLOGQ $0x96, b, a, l

// LOAD8, LOAD4, LOAD2 and LOAD1 fill the vector (named as x, y and z)
// with the chunks of 1, 2, 4 and 8 rows, w = 8, 4, 2 and 1 words each,
// of the next samples of SI: sample s's chunk is s·R10 bytes from rows
// (BX).
#define LOAD8(x, y, z) \
	MOVL      (SI), AX; \
	IMULQ     R10, AX; \
	VMOVDQU64 (BX)(AX*1), z; \
	ADDQ      $4, SI

#define LOAD4(x, y, z) \
	MOVL         (SI), AX; \
	MOVL         4(SI), DX; \
	IMULQ        R10, AX; \
	IMULQ        R10, DX; \
	VMOVDQU      (BX)(AX*1), y; \
	VINSERTI64X4 $1, (BX)(DX*1), z, z; \
	ADDQ         $8, SI

#define LOAD2(x, y, z) \
	MOVL         (SI), AX; \
	MOVL         4(SI), DX; \
	IMULQ        R10, AX; \
	IMULQ        R10, DX; \
	VMOVDQU      (BX)(AX*1), x; \
	VINSERTI32X4 $1, (BX)(DX*1), z, z; \
	MOVL         8(SI), AX; \
	MOVL         12(SI), DX; \
	IMULQ        R10, AX; \
	IMULQ        R10, DX; \
	VINSERTI32X4 $2, (BX)(AX*1), z, z; \
	VINSERTI32X4 $3, (BX)(DX*1), z, z; \
	ADDQ         $16, SI

#define LOAD1(x, y, z) \
	VMOVDQU    (SI), Y14; \
	VPMULLD    Z31, Z14, Z14; \
	KXNORW     K1, K1, K1; \
	VPGATHERDQ (BX)(Y14*8), K1, z; \
	ADDQ       $32, SI

// PAIR loads two vectors and adds them into ones (l), carrying into h.
#define PAIR(load, h, l) \
	load(X0, Y0, Z0); \
	load(X1, Y1, Z1); \
	CSA(h, l, Z0, Z1)

// ROUND adds sixteen vectors into ones..eights and leaves the sixteens
// carried out in Z12.
#define ROUND(load) \
	PAIR(load, Z6, Z2); \
	PAIR(load, Z7, Z2); \
	CSA(Z8, Z3, Z6, Z7); \
	PAIR(load, Z6, Z2); \
	PAIR(load, Z7, Z2); \
	CSA(Z9, Z3, Z6, Z7); \
	CSA(Z10, Z4, Z8, Z9); \
	PAIR(load, Z6, Z2); \
	PAIR(load, Z7, Z2); \
	CSA(Z8, Z3, Z6, Z7); \
	PAIR(load, Z6, Z2); \
	PAIR(load, Z7, Z2); \
	CSA(Z9, Z3, Z6, Z7); \
	CSA(Z11, Z4, Z8, Z9); \
	CSA(Z12, Z5, Z10, Z11)

// RIPPLE adds carry c into level lv, the carry out going to t, if the
// counter has level 4+n (CX levels above the eights).
#define RIPPLE(n, lv, c, t) \
	CMPQ   CX, $n; \
	JLT    rippled; \
	VPANDQ c, lv, t; \
	VPXORQ c, lv, lv

// func countAVX512(ctr, rows *uint64, samples *int32, r, groups, w, levels int)
TEXT ·countAVX512(SB), NOSPLIT, $0-56
	MOVQ ctr+0(FP), DI
	MOVQ rows+8(FP), BX
	MOVQ samples+16(FP), SI
	MOVQ r+24(FP), R10
	MOVQ groups+32(FP), R8
	MOVQ w+40(FP), R9
	MOVQ levels+48(FP), CX
	SUBQ $4, CX
	VMOVQ        R10, X14
	VPBROADCASTD X14, Z31
	SHLQ         $3, R10 // row bytes

	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30

round:
	CMPQ R9, $4
	JGT  round8
	JEQ  round4
	CMPQ R9, $2
	JEQ  round2
	ROUND(LOAD1)
	JMP  ripple

round8:
	ROUND(LOAD8)
	JMP ripple

round4:
	ROUND(LOAD4)
	JMP ripple

round2:
	ROUND(LOAD2)

ripple:
	RIPPLE(1, Z15, Z12, Z13)
	RIPPLE(2, Z16, Z13, Z12)
	RIPPLE(3, Z17, Z12, Z13)
	RIPPLE(4, Z18, Z13, Z12)
	RIPPLE(5, Z19, Z12, Z13)
	RIPPLE(6, Z20, Z13, Z12)
	RIPPLE(7, Z21, Z12, Z13)
	RIPPLE(8, Z22, Z13, Z12)
	RIPPLE(9, Z23, Z12, Z13)
	RIPPLE(10, Z24, Z13, Z12)
	RIPPLE(11, Z25, Z12, Z13)
	RIPPLE(12, Z26, Z13, Z12)
	RIPPLE(13, Z27, Z12, Z13)
	RIPPLE(14, Z28, Z13, Z12)
	RIPPLE(15, Z29, Z12, Z13)
	RIPPLE(16, Z30, Z13, Z12)

rippled:
	DECQ R8
	JNZ  round

	VMOVDQU64 Z2, 0(DI)
	VMOVDQU64 Z3, 64(DI)
	VMOVDQU64 Z4, 128(DI)
	VMOVDQU64 Z5, 192(DI)
	VMOVDQU64 Z15, 256(DI)
	VMOVDQU64 Z16, 320(DI)
	VMOVDQU64 Z17, 384(DI)
	VMOVDQU64 Z18, 448(DI)
	VMOVDQU64 Z19, 512(DI)
	VMOVDQU64 Z20, 576(DI)
	VMOVDQU64 Z21, 640(DI)
	VMOVDQU64 Z22, 704(DI)
	VMOVDQU64 Z23, 768(DI)
	VMOVDQU64 Z24, 832(DI)
	VMOVDQU64 Z25, 896(DI)
	VMOVDQU64 Z26, 960(DI)
	VMOVDQU64 Z27, 1024(DI)
	VMOVDQU64 Z28, 1088(DI)
	VMOVDQU64 Z29, 1152(DI)
	VMOVDQU64 Z30, 1216(DI)
	VZEROUPPER
	RET

// Lane swaps l <-> l^4, l^2, l^1.
#define SWAP4(src, dst) VSHUFI64X2 $0x4E, src, src, dst
#define SWAP2(src, dst) VPERMQ $0x4E, src, dst
#define SWAP1(src, dst) VPSHUFD $0x4E, src, dst

// FOLD adds the counter in the lanes swap brings down into the one in
// the lanes it leaves, a level at a time with a ripple carry (Z3): the
// carry out of the top level is zero, the sum being a count no larger
// than the cell's.
#define FOLD(swap) \
	VMOVDQU64  (AX), Z0; \
	swap(Z0, Z1); \
	VMOVDQA64  Z0, Z2; \
	VPTERNLOGQ $0x96, Z3, Z1, Z2; \
	VPTERNLOGQ $0xE8, Z1, Z0, Z3; \
	VMOVDQU64  Z2, (AX); \
	ADDQ       $64, AX

// func extractAVX512(cases, ctrl *int32, gs int, ctr *uint64, levels, w, total int)
//
// First the 8/w counters of a level are folded into lanes 0..w-1: halves,
// then quarters, then eighths. Then each 32-bit half of those lanes' words
// gives 32 counts, two groups of eight per vector of dwords: per level,
// from the top, each dword lane shifts its bit down (Z20, Z21: shifts 0..15
// and 16..31) and appends it to its count (Z4, Z5).
TEXT ·extractAVX512(SB), NOSPLIT, $0-56
	MOVQ cases+0(FP), DI
	MOVQ ctrl+8(FP), SI
	MOVQ gs+16(FP), R10
	MOVQ ctr+24(FP), BX
	MOVQ levels+32(FP), R8
	MOVQ w+40(FP), R9
	MOVQ total+48(FP), AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Z23
	LEAQ         (R10)(R10*2), R11

	TESTQ R8, R8
	JZ    extract
	CMPQ  R9, $8
	JEQ   extract
	MOVQ  BX, AX
	MOVQ  R8, CX
	VPXORQ Z3, Z3, Z3

fold4:
	FOLD(SWAP4)
	DECQ CX
	JNZ  fold4
	CMPQ R9, $4
	JEQ  extract
	MOVQ BX, AX
	MOVQ R8, CX
	VPXORQ Z3, Z3, Z3

fold2:
	FOLD(SWAP2)
	DECQ CX
	JNZ  fold2
	CMPQ R9, $2
	JEQ  extract
	MOVQ BX, AX
	MOVQ R8, CX
	VPXORQ Z3, Z3, Z3

fold1:
	FOLD(SWAP1)
	DECQ CX
	JNZ  fold1

extract:
	VMOVDQU64    laneNum<>(SB), Z20
	VMOVDQU64    laneNumHi<>(SB), Z21
	MOVL         $1, AX
	VMOVQ        AX, X0
	VPBROADCASTD X0, Z22
	MOVQ         R9, R12
	SHLQ         $1, R12 // 32-bit halves of the w words
	MOVQ         R8, R13
	SHLQ         $6, R13
	LEAQ         -64(BX)(R13*1), R13 // the top level's first half

half:
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	MOVQ   R13, AX
	MOVQ   R8, CX
	TESTQ  CX, CX
	JZ     store

level:
	VPBROADCASTD (AX), Z0
	VPSRLVD      Z20, Z0, Z1
	VPSRLVD      Z21, Z0, Z0
	VPSLLD       $1, Z4, Z4
	VPSLLD       $1, Z5, Z5
	VPTERNLOGD   $0xF8, Z22, Z1, Z4
	VPTERNLOGD   $0xF8, Z22, Z0, Z5
	SUBQ         $64, AX
	DECQ         CX
	JNZ          level

store:
	VPSUBD        Z4, Z23, Z6
	VPSUBD        Z5, Z23, Z7
	VMOVDQU       Y4, (DI)
	VEXTRACTI64X4 $1, Z4, (DI)(R10*1)
	VMOVDQU       Y5, (DI)(R10*2)
	VEXTRACTI64X4 $1, Z5, (DI)(R11*1)
	VMOVDQU       Y6, (SI)
	VEXTRACTI64X4 $1, Z6, (SI)(R10*1)
	VMOVDQU       Y7, (SI)(R10*2)
	VEXTRACTI64X4 $1, Z7, (SI)(R11*1)
	LEAQ          (DI)(R10*4), DI
	LEAQ          (SI)(R10*4), SI
	ADDQ          $4, R13
	DECQ          R12
	JNZ           half
	VZEROUPPER
	RET
