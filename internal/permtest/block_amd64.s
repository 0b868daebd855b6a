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

// The per-lane masks of the transpose's rounds inside a register (s = 4,
// 2, 1): lane l takes ^m, the high halves of its 2s-bit chunks, where bit s
// of l is clear (the lower row of its pair) and m, the low halves, where it
// is set.
DATA tmask4<>+0(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tmask4<>+8(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tmask4<>+16(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tmask4<>+24(SB)/8, $0xf0f0f0f0f0f0f0f0
DATA tmask4<>+32(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tmask4<>+40(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tmask4<>+48(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA tmask4<>+56(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL tmask4<>(SB), RODATA|NOPTR, $64

DATA tmask2<>+0(SB)/8, $0xcccccccccccccccc
DATA tmask2<>+8(SB)/8, $0xcccccccccccccccc
DATA tmask2<>+16(SB)/8, $0x3333333333333333
DATA tmask2<>+24(SB)/8, $0x3333333333333333
DATA tmask2<>+32(SB)/8, $0xcccccccccccccccc
DATA tmask2<>+40(SB)/8, $0xcccccccccccccccc
DATA tmask2<>+48(SB)/8, $0x3333333333333333
DATA tmask2<>+56(SB)/8, $0x3333333333333333
GLOBL tmask2<>(SB), RODATA|NOPTR, $64

DATA tmask1<>+0(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tmask1<>+8(SB)/8, $0x5555555555555555
DATA tmask1<>+16(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tmask1<>+24(SB)/8, $0x5555555555555555
DATA tmask1<>+32(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tmask1<>+40(SB)/8, $0x5555555555555555
DATA tmask1<>+48(SB)/8, $0xaaaaaaaaaaaaaaaa
DATA tmask1<>+56(SB)/8, $0x5555555555555555
GLOBL tmask1<>(SB), RODATA|NOPTR, $64

// The transpose is transpose64's six rounds on the tile's 64 words, eight
// to a register (word k in lane k%8 of Z(k/8)). Round s pairs word k with
// word k+s: new k+s = m ? k>>s : k+s, new k = m ? k : (k+s)<<s, under m,
// the low s bits of every 2s.

// XROUND is a round between registers a (words k) and b (words k+s):
// s = 32, 16, 8.
#define XROUND(s, m, a, b) \
	VPSRLQ     $s, a, Z8; \
	VPSLLQ     $s, b, Z9; \
	VPTERNLOGQ $0xD8, m, Z8, b; \
	VPTERNLOGQ $0xE4, m, Z9, a

// IROUND is a round inside register r (s = 4, 2, 1): the partner words
// come from a lane swap (swap), shifted down for the upper lanes and up
// under k for the lower ones, and taken where the per-lane mask says.
#define IROUND(swap, s, k, mask, r) \
	swap(r, Z8); \
	VPSRLQ     $s, Z8, Z9; \
	VPSLLQ     $s, Z8, k, Z9; \
	VPTERNLOGQ $0xD8, mask, Z9, r

// Lane swaps l <-> l^4, l^2, l^1.
#define SWAP4(src, dst) VSHUFI64X2 $0x4E, src, src, dst
#define SWAP2(src, dst) VPERMQ $0x4E, src, dst
#define SWAP1(src, dst) VPSHUFD $0x4E, src, dst

#define IROUNDS(swap, s, k, mask) \
	IROUND(swap, s, k, mask, Z0); \
	IROUND(swap, s, k, mask, Z1); \
	IROUND(swap, s, k, mask, Z2); \
	IROUND(swap, s, k, mask, Z3); \
	IROUND(swap, s, k, mask, Z4); \
	IROUND(swap, s, k, mask, Z5); \
	IROUND(swap, s, k, mask, Z6); \
	IROUND(swap, s, k, mask, Z7)

// GATHER loads register r with word w of eight planes (AX, then eight
// planes on); SCATTER stores register r to eight rows (DX, then eight
// rows on). Each clears K1, so each sets it first.
#define GATHER(r) \
	KXNORW     K1, K1, K1; \
	VPGATHERDQ (AX)(Y16*1), K1, r; \
	ADDQ       R10, AX

#define SCATTER(r) \
	KXNORW      K1, K1, K1; \
	VPSCATTERDQ r, K1, (DX)(Y17*1); \
	ADDQ        R11, DX

// func transposeAVX512(rows *uint64, stride int, slab *uint64, pstride, words int)
//
// Tile w is word w of the 64 planes, pstride bytes apart from slab; its
// transpose goes to rows 64w..64w+63, stride bytes apart from rows.
TEXT ·transposeAVX512(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), DI
	MOVQ stride+8(FP), R8
	MOVQ slab+16(FP), SI
	MOVQ pstride+24(FP), R9
	MOVQ words+32(FP), CX

	// Y16: the eight planes' byte offsets, Y17: the eight rows'.
	VMOVQ        R9, X8
	VPBROADCASTD X8, Z16
	VPMULLD      laneNum<>(SB), Z16, Z16
	VMOVQ        R8, X8
	VPBROADCASTD X8, Z17
	VPMULLD      laneNum<>(SB), Z17, Z17
	MOVQ         R9, R10
	SHLQ         $3, R10 // eight planes
	MOVQ         R8, R11
	SHLQ         $3, R11 // eight rows
	MOVQ         R8, R12
	SHLQ         $6, R12 // a tile's 64 rows

	MOVQ         $0x00000000ffffffff, AX
	VPBROADCASTQ AX, Z10
	MOVQ         $0x0000ffff0000ffff, AX
	VPBROADCASTQ AX, Z11
	MOVQ         $0x00ff00ff00ff00ff, AX
	VPBROADCASTQ AX, Z12
	VMOVDQU64    tmask4<>(SB), Z13
	VMOVDQU64    tmask2<>(SB), Z14
	VMOVDQU64    tmask1<>(SB), Z15
	MOVQ         $0x0f, AX
	KMOVW        AX, K2
	MOVQ         $0x33, AX
	KMOVW        AX, K3
	MOVQ         $0x55, AX
	KMOVW        AX, K4
	PCALIGN      $32

tile:
	MOVQ SI, AX
	GATHER(Z0)
	GATHER(Z1)
	GATHER(Z2)
	GATHER(Z3)
	GATHER(Z4)
	GATHER(Z5)
	GATHER(Z6)
	GATHER(Z7)

	XROUND(32, Z10, Z0, Z4)
	XROUND(32, Z10, Z1, Z5)
	XROUND(32, Z10, Z2, Z6)
	XROUND(32, Z10, Z3, Z7)
	XROUND(16, Z11, Z0, Z2)
	XROUND(16, Z11, Z1, Z3)
	XROUND(16, Z11, Z4, Z6)
	XROUND(16, Z11, Z5, Z7)
	XROUND(8, Z12, Z0, Z1)
	XROUND(8, Z12, Z2, Z3)
	XROUND(8, Z12, Z4, Z5)
	XROUND(8, Z12, Z6, Z7)
	IROUNDS(SWAP4, 4, K2, Z13)
	IROUNDS(SWAP2, 2, K3, Z14)
	IROUNDS(SWAP1, 1, K4, Z15)

	MOVQ DI, DX
	SCATTER(Z0)
	SCATTER(Z1)
	SCATTER(Z2)
	SCATTER(Z3)
	SCATTER(Z4)
	SCATTER(Z5)
	SCATTER(Z6)
	SCATTER(Z7)

	ADDQ $8, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  tile
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
