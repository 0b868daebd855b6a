//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 bodies of the .raw reader's three per-byte stages: the decode
// of a PLINK-shaped line, the quad-pack and tile transpose of staged rows,
// and the shifted OR of a chunk into the packed section. AVX512F only, the
// subset the package's probe checks with VPOPCNTDQ: opmasks are moved as
// words, no byte or word element operation is used, and nothing runs on
// xmm or ymm registers in an EVEX form.

// func rawCodesAVX512(row, tail *byte, steps int, want uint32) (clean bool)
//
// Each step takes 64 bytes of tail, 32 (separator, digit) pairs, two to a
// dword. XOR with want leaves the dword [0, c0, 0, c1] where both pairs
// have the shape; every dword is ORed into Z29 and its x & x>>1 into Z30.
// The pairs are good iff, at the end, Z29 has no bit outside a digit's
// low two (0xfcfffcff) and Z30 no digit with both of those set (bits 8
// and 24): one VPTESTMD over the two, masked and ORed. The codes meet in
// each dword's low word (x>>8 puts c0 in byte 0, x>>16 puts c1 in byte
// 1), and VPMOVDW stores the 32 words: 32 bytes of row.
TEXT ·rawCodesAVX512(SB), NOSPLIT, $0-33
	MOVQ         row+0(FP), DI
	MOVQ         tail+8(FP), SI
	MOVQ         steps+16(FP), CX
	MOVL         want+24(FP), AX
	VPBROADCASTD AX, Z31
	VPXORD       Z29, Z29, Z29
	VPXORD       Z30, Z30, Z30

decode:
	VPXORD     (SI), Z31, Z0
	VPSRLD     $1, Z0, Z1
	VPORD      Z0, Z29, Z29
	VPTERNLOGD $0xF8, Z1, Z0, Z30 // Z30 |= x & x>>1
	VPSRLD     $8, Z0, Z2
	VPSRLD     $16, Z0, Z3
	VPORD      Z2, Z3, Z3
	VPMOVDW    Z3, (DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        decode

	MOVL         $0xfcfffcff, AX
	VPBROADCASTD AX, Z27
	MOVL         $0x01000100, AX
	VPBROADCASTD AX, Z28
	VPANDD       Z27, Z29, Z29
	VPTERNLOGD   $0xF8, Z28, Z30, Z29 // Z29 |= Z30 & bits 8, 24
	VPTESTMD     Z29, Z29, K1
	KMOVW        K1, AX
	TESTL        AX, AX
	SETEQ        clean+32(FP)
	VZEROUPPER
	RET

// The transpose of a 64 x 64 byte tile swaps, in six rounds, each bit of
// a byte's row number with the same bit of its column number. The three
// low rounds move bytes inside qwords, between registers of one block of
// eight rows (BYTEROUND); the three high ones are an 8 x 8 qword transpose
// of the eight rows with one row number mod 8 (pass two below).

// BYTEROUND swaps bit log2(s/8) of row and column between rows a and b
// (b's row number has the bit set) under m, the low s bits of every 2s:
// a keeps its bytes under m and takes b's shifted up s bits elsewhere, b
// keeps its bytes outside m and takes a's shifted down s bits under it.
#define BYTEROUND(s, m, a, b) \
	VPSRLQ     $s, a, Z8; \
	VPSLLQ     $s, b, Z9; \
	VPTERNLOGQ $0xD8, m, Z8, b; \
	VPTERNLOGQ $0xE4, m, Z9, a

// QUAD packs the next quad of staged rows (SI, pitch R8 apart) into
// register r, r0 | r1<<2 | r2<<4 | r3<<6 per byte (codes are two bits, so
// the dword shifts stay inside their bytes), and steps SI to the next
// quad if there is one. A quad at or past quads (R14; R15 counts them)
// loads under an empty mask and packs as zeros; its loads point at the
// last quad there is, since an address past the staging, masked out or
// not, can cost a microcode assist per load.
#define QUAD(r) \
	CMPQ        R15, R14; \
	SBBL        AX, AX; \
	KMOVW       AX, K1; \
	VMOVDQU32.Z (SI), K1, r; \
	VPSLLD.Z    $2, (SI)(R8*1), K1, Z8; \
	VPSLLD.Z    $4, (SI)(R9*1), K1, Z9; \
	VPSLLD.Z    $6, (SI)(R10*1), K1, Z10; \
	VPTERNLOGD  $0xFE, Z9, Z8, r; \
	VPORD       Z10, r, r; \
	INCQ        R15; \
	LEAQ        (SI)(R11*1), BX; \
	CMPQ        R15, R14; \
	CMOVQCS     BX, SI

// func transposeTileAVX512(dst *byte, stride int, src *byte, pitch, quads int, tile *[4096]byte)
//
// Pass one packs eight quads at a time into Z0..Z7, runs the byte rounds
// on them and stores them to the tile: row q of the tile then holds, in
// qword b, byte j, the quad byte of quad q&^7 | j and column 8b + q&7.
// Pass two loads the tile's rows i, i+8, ..., i+56, transposes them as
// an 8 x 8 matrix of qwords (unpacks, then two rounds of 128-bit lane
// shuffles), and register b then holds tile column 8b + i whole: it is
// stored to dst + (8b+i)*stride. Each group of pass two reads the rows it
// writes, so dst may be the tile itself.
TEXT ·transposeTileAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DX
	MOVQ stride+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ pitch+24(FP), R8
	MOVQ quads+32(FP), R14
	MOVQ tile+40(FP), DI
	XORQ R15, R15
	LEAQ (R8)(R8*1), R9
	LEAQ (R8)(R8*2), R10
	MOVQ R8, R11
	SHLQ $2, R11
	MOVQ $0x00000000ffffffff, AX
	VPBROADCASTQ AX, Z24
	MOVQ $0x0000ffff0000ffff, AX
	VPBROADCASTQ AX, Z25
	MOVQ $0x00ff00ff00ff00ff, AX
	VPBROADCASTQ AX, Z26
	MOVQ $8, CX

pack:
	QUAD(Z0)
	QUAD(Z1)
	QUAD(Z2)
	QUAD(Z3)
	QUAD(Z4)
	QUAD(Z5)
	QUAD(Z6)
	QUAD(Z7)
	BYTEROUND(32, Z24, Z0, Z4)
	BYTEROUND(32, Z24, Z1, Z5)
	BYTEROUND(32, Z24, Z2, Z6)
	BYTEROUND(32, Z24, Z3, Z7)
	BYTEROUND(16, Z25, Z0, Z2)
	BYTEROUND(16, Z25, Z1, Z3)
	BYTEROUND(16, Z25, Z4, Z6)
	BYTEROUND(16, Z25, Z5, Z7)
	BYTEROUND(8, Z26, Z0, Z1)
	BYTEROUND(8, Z26, Z2, Z3)
	BYTEROUND(8, Z26, Z4, Z5)
	BYTEROUND(8, Z26, Z6, Z7)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	ADDQ      $512, DI
	DECQ      CX
	JNZ       pack

	SUBQ $4096, DI
	MOVQ R12, R13
	SHLQ $3, R13
	MOVQ $8, CX

columns:
	VMOVDQU64   (DI), Z0
	VMOVDQU64   512(DI), Z1
	VMOVDQU64   1024(DI), Z2
	VMOVDQU64   1536(DI), Z3
	VMOVDQU64   2048(DI), Z4
	VMOVDQU64   2560(DI), Z5
	VMOVDQU64   3072(DI), Z6
	VMOVDQU64   3584(DI), Z7
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPUNPCKLQDQ Z3, Z2, Z10
	VPUNPCKHQDQ Z3, Z2, Z11
	VPUNPCKLQDQ Z5, Z4, Z12
	VPUNPCKHQDQ Z5, Z4, Z13
	VPUNPCKLQDQ Z7, Z6, Z14
	VPUNPCKHQDQ Z7, Z6, Z15
	VSHUFI64X2  $0x88, Z10, Z8, Z16
	VSHUFI64X2  $0xDD, Z10, Z8, Z17
	VSHUFI64X2  $0x88, Z11, Z9, Z18
	VSHUFI64X2  $0xDD, Z11, Z9, Z19
	VSHUFI64X2  $0x88, Z14, Z12, Z20
	VSHUFI64X2  $0xDD, Z14, Z12, Z21
	VSHUFI64X2  $0x88, Z15, Z13, Z22
	VSHUFI64X2  $0xDD, Z15, Z13, Z23
	VSHUFI64X2  $0x88, Z20, Z16, Z0
	VSHUFI64X2  $0x88, Z22, Z18, Z1
	VSHUFI64X2  $0x88, Z21, Z17, Z2
	VSHUFI64X2  $0x88, Z23, Z19, Z3
	VSHUFI64X2  $0xDD, Z20, Z16, Z4
	VSHUFI64X2  $0xDD, Z22, Z18, Z5
	VSHUFI64X2  $0xDD, Z21, Z17, Z6
	VSHUFI64X2  $0xDD, Z23, Z19, Z7
	MOVQ        DX, BX
	VMOVDQU64   Z0, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z1, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z2, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z3, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z4, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z5, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z6, (BX)
	ADDQ        R13, BX
	VMOVDQU64   Z7, (BX)
	ADDQ        R12, DX
	ADDQ        $64, DI
	DECQ        CX
	JNZ         columns

	VZEROUPPER
	RET

// func orGenotypesAVX512(dst, src *byte, steps int, sh uint64)
//
// Each step ORs 8 qwords of src, shifted up sh bits, into dst: qword k
// becomes x[k]<<sh | x[k-1]>>(64-sh), where VALIGNQ brings each qword's
// predecessor beside it — the previous step's last for qword 0, zero for
// the first step. A shift count of 64 (sh = 0) gives zero.
TEXT ·orGenotypesAVX512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         steps+16(FP), CX
	MOVQ         sh+24(FP), AX
	VPBROADCASTQ AX, Z30
	NEGQ         AX
	ADDQ         $64, AX
	VPBROADCASTQ AX, Z31
	VPXORQ       Z1, Z1, Z1

assemble:
	VMOVDQU64  (SI), Z0
	VALIGNQ    $7, Z1, Z0, Z2 // [prev[7], x[0], ..., x[6]]
	VPSLLVQ    Z30, Z0, Z3
	VPSRLVQ    Z31, Z2, Z2
	VPTERNLOGQ $0xFE, (DI), Z2, Z3 // Z3 |= Z2 | dst
	VMOVDQU64  Z3, (DI)
	VMOVDQA64  Z0, Z1
	ADDQ       $64, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        assemble

	VZEROUPPER
	RET
