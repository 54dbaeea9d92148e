//go:build !amd64 || hacc_noasm

package main

// kernelImpl names the short-range kernel this build links (see
// internal/shortrange: the portable tiled Go kernel).
const kernelImpl = "portable"
