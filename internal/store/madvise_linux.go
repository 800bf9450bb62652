//go:build linux

package store

import "syscall"

// releasePages drops the pages of b, a slice of a read-only shared file
// mapping, from the process (MADV_DONTNEED). Nothing is lost: the next
// access faults the page back in from the page cache. The advice is
// best effort; a refused call leaves the pages resident.
func releasePages(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
