//go:build unix

package buffer

import "syscall"

// mapArena reserves n bytes of zeroed, page-aligned memory outside the
// Go heap. Pages cost nothing until touched.
func mapArena(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapArena returns the mapping to the OS; b must not be touched again.
func unmapArena(b []byte) { _ = syscall.Munmap(b) } // fails only on a slice mapArena did not return
