//go:build amd64 && !hacc_noasm

package main

// kernelImpl names the short-range kernel this build links (see
// internal/shortrange: the SSE2 assembly span kernel on amd64).
const kernelImpl = "sse2-asm"
