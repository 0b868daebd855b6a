//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 body of casePlane's fill: eight plane words per vector, one
// lane each. The generator is counter-based, so the random word for
// output word i and digit d is wyrand(start + (8i+d+1)·weyl) and the
// lanes are independent: lane j of a block starts at start + (8j+1)·weyl,
// every digit steps all lanes by weyl and every block by 64·weyl.

// (8j+1)·weyl mod 2^64 for lanes j = 0..7.
DATA laneWeyl<>+0(SB)/8, $0xa0761d6478bd642f
DATA laneWeyl<>+8(SB)/8, $0xa42708883ea885a7
DATA laneWeyl<>+16(SB)/8, $0xa7d7f3ac0493a71f
DATA laneWeyl<>+24(SB)/8, $0xab88decfca7ec897
DATA laneWeyl<>+32(SB)/8, $0xaf39c9f39069ea0f
DATA laneWeyl<>+40(SB)/8, $0xb2eab51756550b87
DATA laneWeyl<>+48(SB)/8, $0xb69ba03b1c402cff
DATA laneWeyl<>+56(SB)/8, $0xba4c8b5ee22b4e77
GLOBL laneWeyl<>(SB), RODATA|NOPTR, $64

// DRAW leaves in Z20 the wyrand word of the states in Z0, hi ^ lo of
// the 128-bit product s · (s ^ 0xe7037ed1a0b428db), and steps Z0 by
// weyl (Z1). The product comes from four 32 x 32 -> 64 VPMULUDQ
// partial products (they read the low dword of each lane; VPSHUFD
// $0xF5 moves the high one there):
//   t  = hl + ll>>32        (no overflow: hl <= (2^32-1)^2)
//   u  = lh + (t & M32)
//   hi = hh + t>>32 + u>>32
//   lo = u<<32 | ll & M32   (one merge-masked VPSHUFD into ll under K2)
// K1 holds the even dwords (the low half of each lane), K2 the odd.
#define DRAW \
	VPXORQ      Z2, Z0, Z17; \
	VPSHUFD     $0xF5, Z0, Z18; \
	VPSHUFD     $0xF5, Z17, Z19; \
	VPMULUDQ    Z17, Z0, Z20; \
	VPMULUDQ    Z19, Z0, Z21; \
	VPMULUDQ    Z17, Z18, Z22; \
	VPMULUDQ    Z19, Z18, Z23; \
	VPSRLQ      $32, Z20, Z24; \
	VPADDQ      Z24, Z22, Z24; \
	VMOVDQA32.Z Z24, K1, Z25; \
	VPADDQ      Z25, Z21, Z25; \
	VPSRLQ      $32, Z24, Z24; \
	VPADDQ      Z24, Z23, Z23; \
	VPSRLQ      $32, Z25, Z26; \
	VPADDQ      Z26, Z23, Z23; \
	VPSHUFD     $0xA0, Z25, K2, Z20; \
	VPXORQ      Z23, Z20, Z20; \
	VPADDQ      Z1, Z0, Z0

// DIGIT folds the next random word into the words in Z3 under the digit
// mask m: the bitwise majority of x, v and m, which is casePlane's
// digit(x, v, m) — x AND v under a 0 digit, x OR v under a 1.
#define DIGIT(m) \
	DRAW; \
	VPTERNLOGQ $0xE8, m, Z20, Z3

// func fillAVX512(dst *uint64, blocks int, start uint64, m *[9]uint64, tail uint64) (weight int)
//
// Writes 8·blocks >= 8 words at dst, each from its eight digits, ANDs the
// last one with tail and returns the popcount of all of them.
TEXT ·fillAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ m+24(FP), SI

	VPBROADCASTQ start+16(FP), Z0
	VPADDQ       laneWeyl<>(SB), Z0, Z0
	MOVQ         $0xa0761d6478bd642f, AX
	VPBROADCASTQ AX, Z1
	MOVQ         $0xe7037ed1a0b428db, AX
	VPBROADCASTQ AX, Z2
	MOVQ         $0x19d66dfa696dea48, AX // 56·weyl: the eight digits stepped 8·weyl
	VPBROADCASTQ AX, Z13
	VPBROADCASTQ 0(SI), Z4
	VPBROADCASTQ 8(SI), Z5
	VPBROADCASTQ 16(SI), Z6
	VPBROADCASTQ 24(SI), Z7
	VPBROADCASTQ 32(SI), Z8
	VPBROADCASTQ 40(SI), Z9
	VPBROADCASTQ 48(SI), Z10
	VPBROADCASTQ 56(SI), Z11
	VPBROADCASTQ 64(SI), Z12
	MOVQ         $0x5555, AX
	KMOVW        AX, K1
	MOVQ         $0xAAAA, AX
	KMOVW        AX, K2
	VPXORQ       Z14, Z14, Z14

block:
	DRAW
	VPANDQ   Z4, Z20, Z3
	DIGIT(Z5)
	DIGIT(Z6)
	DIGIT(Z7)
	DIGIT(Z8)
	DIGIT(Z9)
	DIGIT(Z10)
	DIGIT(Z11)
	VPORQ    Z12, Z3, Z3
	VMOVDQU64 Z3, (DI)
	VPOPCNTQ Z3, Z15
	VPADDQ   Z15, Z14, Z14
	VPADDQ   Z13, Z0, Z0
	ADDQ     $64, DI
	DECQ     CX
	JNZ      block

	VEXTRACTI64X4 $1, Z14, Y15
	VPADDQ        Y15, Y14, Y14
	VEXTRACTI128  $1, Y14, X15
	VPADDQ        X15, X14, X14
	VPSHUFD       $0xEE, X14, X15
	VPADDQ        X15, X14, X14
	VMOVQ         X14, AX
	VZEROUPPER

	// The last word under tail: drop the bits it clears from the count.
	MOVQ    tail+32(FP), DX
	MOVQ    -8(DI), BX
	MOVQ    DX, R8
	NOTQ    R8
	ANDQ    BX, R8
	POPCNTQ R8, R8
	SUBQ    R8, AX
	ANDQ    DX, BX
	MOVQ    BX, -8(DI)
	MOVQ    AX, weight+40(FP)
	RET
