package store

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"debar/internal/fp"
	"debar/internal/obs"
	"debar/internal/seglog"
)

// appendBoth appends one chunk-log record and one container to e.
func appendBoth(t *testing.T, e *Engine) {
	t.Helper()
	data := []byte("a chunk nobody waits on")
	if err := e.ChunkLog().Append(fp.New(data), uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Repo().Append(testContainer(3, 20)); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after 10 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// TestEngineLogsSyncInBackground: with no barrier called, both durable
// logs fsync what was appended to them. The server waits on the WAL only
// at BackupEnd and on the container log only at a pass's Checkpoint;
// between them, the logs' flushers keep the page cache's dirty tail
// short.
func TestEngineLogsSyncInBackground(t *testing.T) {
	e := openTestEngine(t, t.TempDir())
	defer e.Close()
	walFsyncs := obs.GetCounter("store_wal_fsyncs_total")
	repoFsyncs := obs.GetCounter("store_container_fsyncs_total")
	wal0, repo0 := walFsyncs.Value(), repoFsyncs.Value()
	appendBoth(t, e)
	waitFor(t, "the WAL's record was never fsynced", func() bool { return walFsyncs.Value() > wal0 })
	waitFor(t, "the container was never fsynced", func() bool { return repoFsyncs.Value() > repo0 })
}

// TestEngineWALSyncFailureIsSticky: after the WAL's flusher fails an
// fsync that nobody waited on, the engine reports the failure as its
// read-only cause, and every later barrier — a WAL ticket, Checkpoint,
// Close — returns it, though the medium has recovered.
func TestEngineWALSyncFailureIsSticky(t *testing.T) {
	e := openTestEngine(t, t.TempDir())
	injected := errors.New("injected media failure")
	e.ChunkLog().SetFaults(seglog.Faults{Sync: func() error { return injected }})
	appendBoth(t, e)
	waitFor(t, "the failed WAL fsync never latched the engine", func() bool { return e.ReadOnlyErr() != nil })
	if err := e.ReadOnlyErr(); !errors.Is(err, injected) {
		t.Fatalf("ReadOnlyErr = %v, want the injected error", err)
	}
	e.ChunkLog().SetFaults(seglog.Faults{})
	if err := e.WALTicket(0).Wait(); !errors.Is(err, injected) {
		t.Fatalf("WAL ticket after the failure = %v, want the first error", err)
	}
	if err := e.Checkpoint(); !errors.Is(err, injected) {
		t.Fatalf("Checkpoint after the failure = %v, want the first error", err)
	}
	if err := e.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close after the failure = %v, want the first error", err)
	}
}

// TestEngineCloseStopsFlushers: Close returns only once both logs'
// flushers have exited, though each is busy in an fsync when it starts.
func TestEngineCloseStopsFlushers(t *testing.T) {
	e := openTestEngine(t, t.TempDir())
	slow := seglog.Faults{Sync: func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}}
	e.ChunkLog().SetFaults(slow)
	e.SegRepo().SetFaults(slow)
	appendBoth(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a log's flusher outlived Engine.Close", func() bool {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return !bytes.Contains(buf, []byte("debar/internal/seglog.(*Log).flush("))
	})
}
