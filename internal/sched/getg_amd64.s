#include "textflag.h"

// func goroutineKey() uintptr
TEXT ·goroutineKey(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
