//go:build !unix

package store

import "os"

// mmapSupported reports whether this platform serves mapped reads; when
// false every segment read falls back to pread (ReadAt) with a copy.
const mmapSupported = false

func mmapFile(f *os.File, length int64) []byte { return nil }

func munmapFile(b []byte) error { return nil }

func lockFile(f *os.File) error { return nil } // no advisory locking here
