// Package fsx holds the filesystem primitives the durable write path
// needs beyond the portable os API: data-only fsync (fdatasync(2) on
// Linux, a full Sync elsewhere) and a directory sync.
package fsx

import (
	"errors"
	"os"
)

// SyncData flushes f's written data (and the metadata required to read
// it back, such as a changed file size) to stable storage. On Linux this
// is fdatasync(2); elsewhere it is a full Sync.
func SyncData(f *os.File) error { return syncData(f) }

// SyncDir flushes the directory at path — the names created, renamed or
// removed in it — to stable storage.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
