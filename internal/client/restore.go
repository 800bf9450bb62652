package client

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/retry"
)

// errResumeInvalid reports that a mid-file resume could not be honoured:
// the server's file entry no longer matches the partial state, or the
// server declined the resume offset. The caller drops the partial file
// and retries from chunk zero.
var errResumeInvalid = errors.New("client: restore resume state invalid")

// fileResume is the partial state of an interrupted file restore, kept
// alive across connection attempts so a retry can resume mid-file: the
// open temp file holds idx verified chunks (written bytes) of entry.
type fileResume struct {
	path    string // job-relative path the state belongs to
	tmp     string // temp file name
	f       *os.File
	entry   proto.FileEntry
	idx     int   // chunks verified and appended so far
	written int64 // bytes appended so far
}

// active reports whether r holds resumable state for path. State with no
// verified chunks is not worth resuming (StartChunk 0 is a fresh start
// anyway), so it is treated as inactive and discarded by the caller —
// otherwise the fresh-start path would overwrite the state and leak its
// temp file.
func (r *fileResume) active(path string) bool {
	return r.f != nil && r.path == path && r.idx > 0
}

// abandon discards any partial state, removing the temp file. Idempotent.
func (r *fileResume) abandon() {
	if r.f != nil {
		r.f.Close()
		os.Remove(r.tmp)
	}
	*r = fileResume{}
}

// clear forgets the state without removing the temp file (which a
// successful restore has just renamed into place).
func (r *fileResume) clear() { *r = fileResume{} }

// entryEqual reports whether two file entries describe the same file
// content — the condition for a mid-file resume to be sound.
func entryEqual(a, b proto.FileEntry) bool {
	if a.Path != b.Path || a.Size != b.Size || len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			return false
		}
	}
	return true
}

// restoreBatch returns the chunks-per-batch the client requests from the
// restore stream.
func (c *Client) restoreBatch() int {
	if c.Options.RestoreBatchSize <= 0 {
		return 256
	}
	return c.Options.RestoreBatchSize
}

// restoreWindow returns the requested number of restore batches in flight.
func (c *Client) restoreWindow() int {
	if c.Options.RestoreWindow <= 0 {
		return defaultWindow
	}
	return c.Options.RestoreWindow
}

// safeJoin joins an entry path under destDir, rejecting any path that
// would escape it: absolute paths, paths that traverse upward (`..`, in
// raw or normalised form), and empty or `.` paths. Entry paths come from
// the server's metadata — a corrupt or hostile entry must not be able to
// write outside the restore destination.
func safeJoin(destDir, entryPath string) (string, error) {
	p := filepath.FromSlash(entryPath)
	// IsLocal rejects absolute paths, upward traversal (raw or hidden
	// behind `.`/`..` normalisation) and empty paths — but accepts ".",
	// which would name destDir itself rather than a file inside it.
	if !filepath.IsLocal(p) || filepath.Clean(p) == "." {
		return "", fmt.Errorf("client: restore entry path %q escapes the destination directory", entryPath)
	}
	return filepath.Join(destDir, p), nil
}

// restoreOne streams one file of jobName from the server into destDir:
// it opens the chunk-streamed exchange, appends batches to a temporary
// file as they arrive (acknowledging each to keep the server's window
// open), and re-fingerprints every chunk against the file index. Only a
// complete, verified stream is renamed onto the destination path, so a
// failure never leaves a partial file behind — and never disturbs a
// pre-existing file at the destination. The caller abandons the
// connection on error, so no protocol resynchronisation is needed.
// Every batch is received into *buf, which the connection reuses from one
// batch to the next, and written to the temp file with one write once
// all its chunks verify.
//
// Partial progress lives in res: if the connection dies mid-stream, the
// temp file and its verified-chunk count stay open in res, and the next
// call for the same path asks the server to resume at that chunk (the
// resume offset is echoed in RestoreBegin and the entry is compared
// fingerprint-for-fingerprint — a mismatch yields errResumeInvalid).
// Permanent failures discard the partial state.
func (c *Client) restoreOne(conn *proto.Conn, buf *[]byte, jobName, path, destDir string, res *fileResume) (err error) {
	defer func() {
		// Keep partial state only for failures a retry can resume through:
		// connection-level errors. Verification and protocol failures (and
		// a declined resume) abandon the temp file.
		if err != nil && !retry.Transient(err) {
			res.abandon()
		}
	}()

	if !res.active(path) {
		res.abandon() // stale state for some other file, if any
	}
	start := res.idx

	if err := conn.Send(proto.RestoreFile{
		JobName:     jobName,
		Path:        path,
		BatchChunks: c.restoreBatch(),
		Window:      c.restoreWindow(),
		StartChunk:  uint64(start),
	}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return err
	}
	begin, ok := msg.(proto.RestoreBegin)
	if !ok {
		if ack, is := msg.(proto.Ack); is {
			if start > 0 {
				// The server refused the request outright — the run may
				// have changed under us. Treat as an invalid resume so the
				// retry starts the file over rather than failing the job.
				return fmt.Errorf("client: restore %s: %w: %s", path, errResumeInvalid, ack.Err)
			}
			return fmt.Errorf("client: restore %s: %w", path, proto.AckError(ack))
		}
		return fmt.Errorf("client: unexpected RestoreFile reply %T", msg)
	}
	entry := begin.Entry

	if start > 0 {
		if begin.StartChunk != uint64(start) || !entryEqual(entry, res.entry) {
			return fmt.Errorf("client: restore %s: %w", path, errResumeInvalid)
		}
		mRestoreResumes.Inc()
		c.logger().Info("restore resumed mid-file",
			"job", jobName, "path", path, "start_chunk", start, "written_bytes", res.written)
	} else {
		dst, err := safeJoin(destDir, entry.Path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		mode := fs.FileMode(entry.Mode).Perm()
		if mode == 0 {
			mode = 0o644
		}
		f, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".restore-*")
		if err != nil {
			return err
		}
		if err := f.Chmod(mode); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
		*res = fileResume{path: path, tmp: f.Name(), f: f, entry: entry}
	}

	for {
		msg, err := conn.RecvInto(buf)
		if err != nil {
			return fmt.Errorf("client: restore %s interrupted: %w", path, err)
		}
		switch m := msg.(type) {
		case proto.RestoreChunkBatch:
			if res.idx+len(m.Data) > len(entry.Chunks) {
				return fmt.Errorf("client: restore %s: server sent more chunks than the file index holds", path)
			}
			n := 0
			for i, chunk := range m.Data {
				if fp.New(chunk) != entry.Chunks[res.idx+i] {
					return fmt.Errorf("client: restore %s: chunk %d fingerprint mismatch (corruption in transit or store)", path, res.idx+i)
				}
				n += len(chunk)
			}
			// The batch's chunks lie back to back at the end of the
			// receive buffer (RecvInto).
			if _, err := res.f.Write((*buf)[len(*buf)-n:]); err != nil {
				return err
			}
			res.written += int64(n)
			res.idx += len(m.Data)
			if err := conn.Send(proto.RestoreAck{Seq: m.Seq}); err != nil {
				return err
			}
		case proto.RestoreDone:
			if m.Err != "" {
				return fmt.Errorf("client: restore %s: %s", path, m.Err)
			}
			if res.idx != len(entry.Chunks) || res.written != entry.Size {
				return fmt.Errorf("client: restore %s: stream ended after %d/%d chunks, %d/%d bytes",
					path, res.idx, len(entry.Chunks), res.written, entry.Size)
			}
			dst, err := safeJoin(destDir, entry.Path)
			if err != nil {
				return err
			}
			f, tmp := res.f, res.tmp
			res.clear()
			if err := f.Close(); err != nil {
				os.Remove(tmp)
				return err
			}
			if err := os.Rename(tmp, dst); err != nil {
				os.Remove(tmp)
				return err
			}
			return nil
		default:
			return fmt.Errorf("client: unexpected %T during restore stream", msg)
		}
	}
}
