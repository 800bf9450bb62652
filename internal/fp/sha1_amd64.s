#include "textflag.h"

// SHA-1 compression with the SHA extensions (SHA1RNDS4, SHA1NEXTE,
// SHA1MSG1, SHA1MSG2), in the four-rounds-per-step schedule of Gulley et
// al., "Intel SHA Extensions" (2013).
//
// Registers: X0 = ABCD (A in the top lane), X1/X2 = E, alternating
// between steps (SHA1NEXTE derives the next E from the current ABCD),
// X3-X6 = the message schedule ring W[i..i+3], X7 = byte-reversal mask,
// X8/X9 = the block's input E and ABCD for the final addition.

// ROUNDS4 runs rounds 4i..4i+3 for 4 <= i <= 16 with f selected by k.
// Ein holds E for this step and Eout receives the next one; Ma holds
// W[4i..4i+3]. Alongside, it finishes W[4i+4..] in Mb (MSG2), starts
// W[4i+12..] in Md (MSG1) and folds Ma into W[4i+8..] in Mc.
#define ROUNDS4(k, Ein, Eout, Ma, Mb, Mc, Md) \
	SHA1NEXTE Ma, Ein;       \
	MOVO      X0, Eout;      \
	SHA1MSG2  Ma, Mb;        \
	SHA1RNDS4 $k, Ein, X0;   \
	SHA1MSG1  Ma, Md;        \
	PXOR      Ma, Mc

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX                    // DX = end of the last whole block

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0           // h0..h3 -> A in the top lane
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1          // h4 -> E in the top lane
	MOVOU  flipMask<>(SB), X7

loop:
	MOVO X1, X8
	MOVO X0, X9

	// Rounds 0-15: load and byte-swap W[0..15] while starting the
	// schedule for W[16..].
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-67.
	ROUNDS4(0, X1, X2, X3, X4, X5, X6)
	ROUNDS4(1, X2, X1, X4, X5, X6, X3)
	ROUNDS4(1, X1, X2, X5, X6, X3, X4)
	ROUNDS4(1, X2, X1, X6, X3, X4, X5)
	ROUNDS4(1, X1, X2, X3, X4, X5, X6)
	ROUNDS4(1, X2, X1, X4, X5, X6, X3)
	ROUNDS4(2, X1, X2, X5, X6, X3, X4)
	ROUNDS4(2, X2, X1, X6, X3, X4, X5)
	ROUNDS4(2, X1, X2, X3, X4, X5, X6)
	ROUNDS4(2, X2, X1, X4, X5, X6, X3)
	ROUNDS4(2, X1, X2, X5, X6, X3, X4)
	ROUNDS4(3, X2, X1, X6, X3, X4, X5)
	ROUNDS4(3, X1, X2, X3, X4, X5, X6)

	// Rounds 68-79: the schedule is complete after W[76..79].
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the block's input state.
	SHA1NEXTE X8, X1
	PADDD     X9, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// flipMask reverses the 16 bytes of a message load: big-endian words,
// W[i] in the top lane.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16
