// Package fsx holds the filesystem primitive the durable write path needs
// beyond the portable os API: data-only fsync (fdatasync(2) on Linux, a
// full Sync elsewhere).
package fsx

import "os"

// SyncData flushes f's written data (and the metadata required to read
// it back, such as a changed file size) to stable storage. On Linux this
// is fdatasync(2); elsewhere it is a full Sync.
func SyncData(f *os.File) error { return syncData(f) }
