//go:build amd64 && !purego

#include "textflag.h"

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
