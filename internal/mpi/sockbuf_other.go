//go:build !unix

package mpi

// sndBufOf cannot read SO_SNDBUF on this platform; the granted size reads 0.
func sndBufOf(uintptr) int { return 0 }
