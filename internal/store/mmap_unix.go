//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapSupported reports whether this platform serves mapped reads; when
// false every segment read falls back to pread (ReadAt) with a copy.
const mmapSupported = true

// mmapFile maps length bytes of f read-only and shared. The mapping may
// extend past the current end of file: pages become readable as appends
// grow the file (the unified page cache keeps WriteAt and the mapping
// coherent), which is how the active segment serves zero-copy reads while
// it is still being written. A nil return means "no mapping" and callers
// must use the pread path.
func mmapFile(f *os.File, length int64) []byte {
	if length <= 0 || length > int64(int(^uint(0)>>1)) {
		return nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Unsupported filesystem or exhausted mappings: degrade to pread.
		return nil
	}
	return b
}

func munmapFile(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}

// lockFile takes an exclusive, non-blocking advisory lock on f. It fails
// when another process holds the lock; the lock dies with the process, so
// a crash never leaves the data dir stuck.
func lockFile(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("store: data directory locked by another process: %w", err)
	}
	return nil
}
