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

// (j+1)·weyl mod 2^64 for lanes j = 0..7: a batch of flip draws.
DATA drawWeyl<>+0(SB)/8, $0xa0761d6478bd642f
DATA drawWeyl<>+8(SB)/8, $0x40ec3ac8f17ac85e
DATA drawWeyl<>+16(SB)/8, $0xe162582d6a382c8d
DATA drawWeyl<>+24(SB)/8, $0x81d87591e2f590bc
DATA drawWeyl<>+32(SB)/8, $0x224e92f65bb2f4eb
DATA drawWeyl<>+40(SB)/8, $0xc2c4b05ad470591a
DATA drawWeyl<>+48(SB)/8, $0x633acdbf4d2dbd49
DATA drawWeyl<>+56(SB)/8, $0x03b0eb23c5eb2178
GLOBL drawWeyl<>(SB), RODATA|NOPTR, $64

// FLIP applies one position of a batch, its word index at idx and its
// bit mask at mask: the bit flips iff it is still in the state to leave
// — a position drawn twice in one batch flips once — without a branch on
// whether it does, and CX counts the flip down (ZF: the last one).
#define FLIP(idx, mask) \
	MOVQ    idx, R13; \
	MOVQ    (DI)(R13*8), R15; \
	MOVQ    R15, BX; \
	XORQ    R10, BX; \
	ANDQ    mask, BX; \
	XORQ    BX, R15; \
	MOVQ    R15, (DI)(R13*8); \
	POPCNTQ BX, BX; \
	SUBQ    BX, CX

// func flipAVX512(dst *uint64, n int, start uint64, leave uint64, d int) (left int, at uint64)
//
// The flips of casePlane, eight draws a batch: lane j of a batch draws
// wyrand(start + (j+1)·weyl) and takes Lemire's high word of it times n
// (n < 2^32, so two VPMULUDQ partial products give the 96-bit product):
//   a = vl·n, t = vh·n + a>>32, hi = t>>32, lo = t<<32 | a & M32.
// A lane whose lo might be below n, one whose t has a zero low half, ends
// the run: intn's rejection test must see that draw. The lanes before it
// are applied, and the function returns with at = the counter before
// that lane's draw and left = the flips still to make; intn then draws
// exactly what it would have. Otherwise the eight positions are applied
// in lane order, their word indices and bit masks stored to the stack,
// until d flips are made: left = 0, at undefined. Bits are tested under
// a mask word, so no variable shift goes through the flags. A batch that
// cannot make the last flip (d > 8) applies its lanes without a branch;
// only a batch that may make it checks after each lane.
TEXT ·flipAVX512(SB), NOSPLIT, $128-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ start+16(FP), R9
	MOVQ leave+24(FP), R10
	DECQ R10 // a word XOR R10 has a position's bit set iff it is in the state to leave
	MOVQ d+32(FP), CX

	VPBROADCASTQ start+16(FP), Z0
	VPADDQ       drawWeyl<>(SB), Z0, Z0
	MOVQ         $0x03b0eb23c5eb2178, R11 // 8·weyl: a batch
	VPBROADCASTQ R11, Z1
	MOVQ         $0xe7037ed1a0b428db, AX
	VPBROADCASTQ AX, Z2
	VPBROADCASTQ R8, Z3
	MOVQ         $63, AX
	VPBROADCASTQ AX, Z5
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z6
	MOVQ         $0xffffffff, AX
	VPBROADCASTQ AX, Z9
	MOVQ         $0xa0761d6478bd642f, R12 // weyl
	MOVQ         $0x5555, AX
	KMOVW        AX, K1
	MOVQ         $0xAAAA, AX
	KMOVW        AX, K2

batch:
	DRAW
	VPMULUDQ  Z3, Z20, Z21 // a
	VPSRLQ    $32, Z20, Z22
	VPMULUDQ  Z3, Z22, Z22 // vh·n
	VPSRLQ    $32, Z21, Z23
	VPADDQ    Z23, Z22, Z22 // t
	VPTESTNMQ Z9, Z22, K3 // lo < 2^32: the run ends before the first such lane
	VPSRLQ    $38, Z22, Z7 // word indices, hi >> 6
	VPSRLQ    $32, Z22, Z8 // hi: the positions
	VPANDQ    Z5, Z8, Z8
	VPSLLVQ   Z8, Z6, Z8 // bit masks
	VMOVDQU64 Z7, 0(SP)
	VMOVDQU64 Z8, 64(SP)
	KMOVW     K3, AX
	TESTQ     AX, AX
	JNZ       partial
	CMPQ      CX, $8
	JLE       last

	FLIP(0(SP), 64(SP))
	FLIP(8(SP), 72(SP))
	FLIP(16(SP), 80(SP))
	FLIP(24(SP), 88(SP))
	FLIP(32(SP), 96(SP))
	FLIP(40(SP), 104(SP))
	FLIP(48(SP), 112(SP))
	FLIP(56(SP), 120(SP))
	ADDQ R11, R9
	JMP  batch

	// A batch that may make the last flip checks after each lane; one
	// with a rejecting lane applies the lanes before it and returns.
partial:
	BSFQ AX, DX
	JMP  checked

last:
	MOVQ $8, DX

checked:
	XORQ  SI, SI
	TESTQ DX, DX
	JZ    checkedEnd

lane:
	FLIP(0(SP)(SI*8), 64(SP)(SI*8))
	JZ   done
	INCQ SI
	CMPQ SI, DX
	JNE  lane

checkedEnd:
	TESTQ AX, AX
	JNZ   reject
	ADDQ  R11, R9
	JMP   batch

reject:
	IMULQ R12, DX
	ADDQ  DX, R9

done:
	MOVQ CX, left+40(FP)
	MOVQ R9, at+48(FP)
	VZEROUPPER
	RET
