//go:build !linux

package store

// releasePages is a no-op where syscall offers no madvise: a released
// container's mapped pages stay resident until Close unmaps them.
func releasePages(b []byte) {}
