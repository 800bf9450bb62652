package client

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/retry"
)

// VerifyResult summarises a verify job (§3.1: the director "supervises
// the entire backup, restore, verify ... operations").
type VerifyResult struct {
	Checked  int // files compared
	Matched  int // files whose chunk fingerprints all match
	Modified []string
	Missing  []string // in the backup but absent locally
}

// OK reports whether the local tree matches the backup exactly.
func (v VerifyResult) OK() bool { return len(v.Modified) == 0 && len(v.Missing) == 0 }

// Verify compares the latest run of jobName against the local directory
// tree without transferring any chunk data: each local file is cut at the
// chunk sizes its stored file index records, re-fingerprinted locally and
// compared against the stored fingerprints.
// Transient connection failures retry the whole pass with backoff (the
// pass moves no data and holds no server state, so a re-run is cheap and
// safe).
func (c *Client) Verify(jobName, dir string) (VerifyResult, error) {
	var res VerifyResult
	if err := c.Options.Validate(); err != nil {
		return res, err
	}
	pol := c.retryPolicy()
	var err error
	for attempt := 0; ; attempt++ {
		res, err = c.verifyOnce(jobName, dir)
		if err == nil || !retry.Transient(err) || attempt >= pol.Attempts-1 {
			return res, err
		}
		time.Sleep(pol.Backoff(attempt))
	}
}

// verifyOnce is one verify pass over one connection.
func (c *Client) verifyOnce(jobName, dir string) (VerifyResult, error) {
	var res VerifyResult
	conn, err := c.dial()
	if err != nil {
		return res, err
	}
	defer conn.Close()

	if err := conn.Send(proto.ListFiles{JobName: jobName}); err != nil {
		return res, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return res, err
	}
	list, ok := msg.(proto.FileList)
	if !ok {
		if ack, is := msg.(proto.Ack); is {
			return res, fmt.Errorf("client: verify: %w", proto.AckError(ack))
		}
		return res, fmt.Errorf("client: unexpected ListFiles reply %T", msg)
	}

	for _, path := range list.Paths {
		// Metadata-only request: the entry's chunk fingerprints are all
		// verify compares against, so no chunk data ever moves.
		if err := conn.Send(proto.RestoreMeta{JobName: jobName, Path: path}); err != nil {
			return res, err
		}
		msg, err := conn.Recv()
		if err != nil {
			return res, err
		}
		meta, ok := msg.(proto.RestoreBegin)
		if !ok {
			if ack, is := msg.(proto.Ack); is {
				return res, fmt.Errorf("client: verify %s: %w", path, proto.AckError(ack))
			}
			return res, fmt.Errorf("client: unexpected RestoreMeta reply %T", msg)
		}
		res.Checked++
		// Same traversal guard as restore: a hostile or corrupt server
		// path must not make verify read (and fingerprint-compare) files
		// outside the tree being verified.
		local, err := safeJoin(dir, path)
		if err != nil {
			return res, err
		}
		match, err := fileMatches(local, meta.Entry)
		if errors.Is(err, os.ErrNotExist) {
			res.Missing = append(res.Missing, path)
			continue
		}
		if err != nil {
			return res, err
		}
		if match {
			res.Matched++
		} else {
			res.Modified = append(res.Modified, path)
		}
	}
	return res, nil
}

// fileMatches slices the local file by the chunk sizes the backup recorded
// and compares each piece's fingerprint with the stored one. It never
// re-anchors, so the verdict does not depend on the chunking parameters
// the backup or this client uses.
func fileMatches(path string, entry proto.FileEntry) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	if len(entry.Sizes) != len(entry.Chunks) {
		return false, nil
	}
	// A file whose size differs from the recorded total is modified.
	// Checking first also keeps the buffer, sized from the server's
	// Sizes, no larger than the local file.
	info, err := f.Stat()
	if err != nil {
		return false, err
	}
	var total int64
	for _, size := range entry.Sizes {
		total += int64(size)
	}
	if total != info.Size() {
		return false, nil
	}
	var buf []byte
	for i, size := range entry.Sizes {
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		piece := buf[:size]
		if _, err := io.ReadFull(f, piece); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return false, nil // shrank since the Stat
			}
			return false, err
		}
		if fp.New(piece) != entry.Chunks[i] {
			return false, nil
		}
	}
	var one [1]byte
	switch _, err := io.ReadFull(f, one[:]); {
	case errors.Is(err, io.EOF):
		return true, nil
	case err == nil:
		return false, nil // grew since the Stat
	default:
		return false, err
	}
}
