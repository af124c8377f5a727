//go:build !unix

package buffer

// mapArena falls back to the Go heap where there is no anonymous mmap:
// the collector then counts the arena as live, as it did every frame
// before the pool had one.
func mapArena(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapArena has nothing to return: the collector frees the arena with
// the last frame that points into it.
func unmapArena([]byte) {}
