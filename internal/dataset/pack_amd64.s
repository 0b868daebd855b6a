//go:build amd64 && !purego

#include "textflag.h"

// func packBlocksAVX512(dst, src *byte, blocks int) (clean bool)
//
// The validate-and-pack pass over blocks >= 1 steps of 64 genotype bytes:
// each step packs its sixteen dwords of four bytes b0..b3 into the byte
// b0 | b1<<2 | b2<<4 | b3<<6 (x | x>>6 brings b1 beside b0 and b3 beside
// b2, OR-ing that with itself >> 12 brings b2b3 beside b0b1, and VPMOVDB
// keeps each dword's low byte) and writes the 16 bytes to dst. A byte is 0,
// 1 or 2 iff it has no bit above its low two and not both of those, so the
// bits x &^ 0x03 and x & x>>1 of every byte are ORed into Z30 (in a clean
// dword x & x>>1 is zero: no two adjacent bits are set), and one VPTESTMD
// at the end says whether any was set. Where one was, dst holds garbage
// for that byte's group and the caller repacks or refuses the data.
TEXT ·packBlocksAVX512(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	MOVL $0x03030303, AX
	VPBROADCASTD AX, Z31
	VPXORD Z30, Z30, Z30

step:
	VMOVDQU32  (SI), Z0
	VPSRLD     $1, Z0, Z1
	VPTERNLOGD $0xF8, Z1, Z0, Z30 // Z30 |= x & x>>1
	VPTERNLOGD $0xF4, Z31, Z0, Z30 // Z30 |= x &^ 0x03030303
	VPSRLD     $6, Z0, Z2
	VPTERNLOGD $0xFC, Z0, Z0, Z2  // x | x>>6
	VPSRLD     $12, Z2, Z3
	VPTERNLOGD $0xFC, Z2, Z2, Z3  // ... | itself>>12
	VPMOVDB    Z3, (DI)
	ADDQ       $64, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        step

	VPTESTMD Z30, Z30, K1
	KMOVW    K1, AX
	TESTL    AX, AX
	SETEQ    clean+24(FP)
	VZEROUPPER
	RET
