package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/client"
	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/server"
	"debar/internal/store"
)

// TestShardedDedup2ServerRoundTrip drives two duplicate-heavy backup
// generations through the server's single-stream dedup-2 pass and
// restores the second byte-identical. The second generation re-sends the
// first generation's content under a new job, so its pass resolves nearly
// every fingerprint through the SIL index scan. The name predates the
// removal of the server's region-sharded pass; the subtest name marks the
// durable storage engine, which every server runs on.
func TestShardedDedup2ServerRoundTrip(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		d, _, srvAddr := startServer(t, nil)

		src := t.TempDir()
		files := writeTree(t, src, 3)
		c := testClient(srvAddr)
		if _, err := c.Backup("gen-1", src); err != nil {
			t.Fatal(err)
		}
		if err := d.TriggerDedup2(true); err != nil {
			t.Fatal(err)
		}

		// Second generation: same tree plus one new file, fresh job →
		// empty job-chain filter, every fingerprint undetermined.
		extra := bytes.Repeat([]byte("second-generation-delta"), 4<<10)
		if err := os.WriteFile(filepath.Join(src, "delta.bin"), extra, 0o644); err != nil {
			t.Fatal(err)
		}
		files["delta.bin"] = extra
		if _, err := c.Backup("gen-2", src); err != nil {
			t.Fatal(err)
		}
		if err := d.TriggerDedup2(true); err != nil {
			t.Fatal(err)
		}

		for _, job := range []string{"gen-2"} {
			dst := t.TempDir()
			if _, err := c.Restore(job, dst); err != nil {
				t.Fatalf("restore %s: %v", job, err)
			}
			for rel, want := range files {
				got, err := os.ReadFile(filepath.Join(dst, rel))
				if err != nil {
					t.Fatalf("restore %s: %v", job, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("restore %s: %s differs (%d vs %d bytes)", job, rel, len(got), len(want))
				}
			}
		}
	})
}

// TestShardedDedup2DuringBackup overlaps dedup-2 passes with live backup
// sessions: each pass walks a snapshot of the chunk log without its lock
// while dedup-1 keeps appending behind it, stores the live sessions'
// chunks logged before its mark, and leaves the records appended past the
// mark for the next pass.
func TestShardedDedup2DuringBackup(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)

	src := t.TempDir()
	files := writeTree(t, src, 9)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := testClient(srvAddr)
			_, errs[i] = c.Backup("overlap-job", src)
		}(i)
	}
	// Fire dedup-2 passes while the backups stream.
	for i := 0; i < 3; i++ {
		if err := d.TriggerDedup2(true); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.TriggerDedup2(true); err != nil {
		t.Fatal(err)
	}

	dst := t.TempDir()
	c := testClient(srvAddr)
	if _, err := c.Restore("overlap-job", dst); err != nil {
		t.Fatal(err)
	}
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(dst, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs after overlapped dedup-2", rel)
		}
	}
}

// TestDedup2ConsumesLiveSession: the chunk log is dedup-2's work queue,
// so a pass stores the acked chunks of a session that is still open and
// truncates the WAL under it. Session A stays open with n acked chunks:
// pass 1 stores all n and leaves a 0-byte WAL. A then logs m more: pass 2
// stores exactly those m and re-walks none of the first n. After A ends,
// its file restores byte-identical.
func TestDedup2ConsumesLiveSession(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	walPath := filepath.Join(eng.Dir(), "chunklog.wal")

	const n, m = 6, 4
	var entry proto.FileEntry
	var file []byte
	chunks := make([][]byte, n+m)
	for i := range chunks {
		chunks[i] = bytes.Repeat([]byte(fmt.Sprintf("live-session chunk %02d ", i)), 64)
		entry.Chunks = append(entry.Chunks, fp.New(chunks[i]))
		entry.Sizes = append(entry.Sizes, uint32(len(chunks[i])))
		file = append(file, chunks[i]...)
	}
	entry.Path, entry.Mode, entry.Size = "live.bin", 0o644, int64(len(file))

	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(req any) any {
		t.Helper()
		if err := conn.Send(req); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	start, ok := call(proto.BackupStart{JobName: "live-job", Client: "a", Version: proto.ProtocolVersion}).(proto.BackupStartOK)
	if !ok {
		t.Fatal("BackupStart refused")
	}
	sess := start.SessionID
	// ship offers chunks [lo, hi) and sends them; every one must be new
	// and acked.
	ship := func(seq uint64, lo, hi int) {
		t.Helper()
		v, ok := call(proto.FPBatch{SessionID: sess, Seq: seq, FPs: entry.Chunks[lo:hi], Sizes: entry.Sizes[lo:hi]}).(proto.FPVerdicts)
		if !ok || len(v.Verdicts) != hi-lo {
			t.Fatalf("FPBatch %d: want %d verdicts", seq, hi-lo)
		}
		for i := range v.Verdicts {
			if !v.NeedsTransfer(i) {
				t.Fatalf("FPBatch %d: chunk %d not requested", seq, lo+i)
			}
		}
		data := make([][]byte, 0, hi-lo)
		for _, c := range chunks[lo:hi] {
			data = append(data, append([]byte(nil), c...))
		}
		if ack, ok := call(proto.ChunkBatch{SessionID: sess, FPs: entry.Chunks[lo:hi], Data: data}).(proto.Ack); !ok || !ack.OK {
			t.Fatalf("ChunkBatch %d not acked", seq)
		}
	}

	ship(0, 0, n)
	if done := runDedup2Direct(t, srvAddr); done.NewChunks != n {
		t.Fatalf("pass 1 with the session open stored %d chunks, want %d", done.NewChunks, n)
	}
	if st, err := os.Stat(walPath); err != nil {
		t.Fatal(err)
	} else if st.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after a caught-up pass, want 0", st.Size())
	}

	ship(1, n, n+m)
	if done := runDedup2Direct(t, srvAddr); done.NewChunks != m || done.DupChunks != 0 {
		t.Fatalf("pass 2 = %d new / %d dup chunks, want %d / 0", done.NewChunks, done.DupChunks, m)
	}

	if ack, ok := call(proto.FileMeta{SessionID: sess, Entry: entry}).(proto.Ack); !ok || !ack.OK {
		t.Fatal("FileMeta refused")
	}
	if _, ok := call(proto.BackupEnd{SessionID: sess}).(proto.BackupDone); !ok {
		t.Fatal("BackupEnd refused")
	}
	dst := t.TempDir()
	if _, err := client.New(srvAddr, "restore-live").Restore("live-job", dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, entry.Path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatalf("restored %s differs (%d vs %d bytes)", entry.Path, len(got), len(file))
	}
}
