//go:build unix

package metastore

import (
	"path/filepath"
	"testing"
)

func TestJournalLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(path); err == nil {
		t.Fatal("second store over a live journal was not rejected")
	}
}
