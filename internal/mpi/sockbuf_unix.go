//go:build unix

package mpi

import "syscall"

// sndBufOf reads a socket's SO_SNDBUF, or 0 if it cannot.
func sndBufOf(fd uintptr) int {
	v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	if err != nil {
		return 0
	}
	return v
}
