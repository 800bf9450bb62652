//go:build unix

package metastore

import (
	"fmt"
	"os"
	"syscall"
)

// lockJournal takes an exclusive, non-blocking advisory lock on the
// journal file: two directors over one journal would interleave frames
// and corrupt the journal. The lock dies with the process.
func lockJournal(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("metastore: journal locked by another process: %w", err)
	}
	return nil
}
