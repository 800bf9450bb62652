package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"debar/internal/client"
	"debar/internal/fp"
	"debar/internal/proto"
)

// TestConcurrentSessions drives ≥4 clients backing up different datasets
// to one server at the same time, runs dedup-2, and verifies every
// dataset restores byte-identically. Run under -race this exercises the
// per-session locking of the server and the client's pipelined data path.
func TestConcurrentSessions(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)

	const nClients = 4
	type job struct {
		name  string
		src   string
		files map[string][]byte
	}
	jobs := make([]job, nClients)
	for i := range jobs {
		src := t.TempDir()
		jobs[i] = job{
			name:  fmt.Sprintf("conc-job-%d", i),
			src:   src,
			files: writeTree(t, src, int64(100+i)),
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	stats := make([]client.BackupStats, nClients)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := testClient(srvAddr)
			c.Name = fmt.Sprintf("conc-client-%d", i)
			stats[i], errs[i] = c.Backup(jobs[i].name, jobs[i].src)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if stats[i].Files != 5 {
			t.Fatalf("client %d backed up %d files", i, stats[i].Files)
		}
		if stats[i].TransferredBytes >= stats[i].LogicalBytes {
			t.Fatalf("client %d: no dedup-1 savings (%d of %d)",
				i, stats[i].TransferredBytes, stats[i].LogicalBytes)
		}
	}

	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	for i := range jobs {
		dst := t.TempDir()
		c := testClient(srvAddr)
		n, err := c.Restore(jobs[i].name, dst)
		if err != nil {
			t.Fatalf("restore job %d: %v", i, err)
		}
		if n != 5 {
			t.Fatalf("job %d restored %d files", i, n)
		}
		for rel, want := range jobs[i].files {
			got, err := os.ReadFile(filepath.Join(dst, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job %d file %s differs after concurrent backup", i, rel)
			}
		}
	}
}

// TestConcurrentRestores streams N parallel restores of different jobs
// against one server. Run under -race this exercises the internally
// synchronised restorer (shared LPC cache, concurrent index lookups and
// container loads) and the per-connection restore streams overlapping
// instead of queueing behind a global restore lock.
func TestConcurrentRestores(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)

	const nJobs = 4
	type job struct {
		name  string
		files map[string][]byte
	}
	jobs := make([]job, nJobs)
	for i := range jobs {
		src := t.TempDir()
		jobs[i] = job{
			name:  fmt.Sprintf("par-restore-%d", i),
			files: writeTree(t, src, int64(300+i)),
		}
		c := testClient(srvAddr)
		c.Name = fmt.Sprintf("par-client-%d", i)
		if _, err := c.Backup(jobs[i].name, src); err != nil {
			t.Fatalf("backup %d: %v", i, err)
		}
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	dsts := make([]string, nJobs)
	for i := range dsts {
		dsts[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	errs := make([]error, nJobs)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := testClient(srvAddr)
			c.Options.RestoreBatchSize = 32 // many small batches: maximise interleaving
			c.Options.RestoreWindow = 2
			var n int
			n, errs[i] = c.Restore(jobs[i].name, dsts[i])
			if errs[i] == nil && n != 5 {
				errs[i] = fmt.Errorf("restored %d files, want 5", n)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent restore %d: %v", i, err)
		}
		for rel, want := range jobs[i].files {
			got, err := os.ReadFile(filepath.Join(dsts[i], rel))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job %d file %s differs after concurrent restore", i, rel)
			}
		}
	}
}

// TestConcurrentBackupAndRestore overlaps a restore of one job with a
// backup of another: the restorer must not be blocked behind (or block)
// an in-flight dedup-1 stream.
func TestConcurrentBackupAndRestore(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)

	src1 := t.TempDir()
	files1 := writeTree(t, src1, 51)
	c1 := testClient(srvAddr)
	if _, err := c1.Backup("overlap-a", src1); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	src2 := t.TempDir()
	writeTree(t, src2, 52)
	done := make(chan error, 1)
	go func() {
		c2 := testClient(srvAddr)
		_, err := c2.Backup("overlap-b", src2)
		done <- err
	}()

	dst := t.TempDir()
	if _, err := c1.Restore("overlap-a", dst); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for rel, want := range files1 {
		got, err := os.ReadFile(filepath.Join(dst, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs when restored during a concurrent backup", rel)
		}
	}
}

// TestCloseUnblocksActiveConnections verifies Server.Close tears down
// in-flight connection handlers, not just the listener.
func TestCloseUnblocksActiveConnections(t *testing.T) {
	_, srv, addr := startServer(t, nil)

	conn, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.BackupStart{JobName: "close-test", Client: "c", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The handler side of conn must now be closed: a Recv on the idle
	// connection should fail promptly instead of hanging until we give up.
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv on a closed server's connection returned a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection to closed server still open after 5s")
	}
}

// TestChunkBatchAtomicOnMismatch sends a batch whose middle chunk is
// corrupt and checks the whole batch is rejected without touching the
// session accounting, then that a corrected batch still lands.
func TestChunkBatchAtomicOnMismatch(t *testing.T) {
	_, _, addr := startServer(t, nil)

	conn, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if err := conn.Send(proto.BackupStart{JobName: "atomic", Client: "c", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sess := msg.(proto.BackupStartOK).SessionID

	chunks := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	fps := make([]fp.FP, len(chunks))
	var sizes []uint32
	for i, c := range chunks {
		fps[i] = fp.New(c)
		sizes = append(sizes, uint32(len(c)))
	}
	if err := conn.Send(proto.FPBatch{SessionID: sess, FPs: fps, Sizes: sizes}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if v := msg.(proto.FPVerdicts); len(v.Verdicts) != 3 || !v.NeedsTransfer(0) || !v.NeedsTransfer(1) || !v.NeedsTransfer(2) {
		t.Fatalf("verdicts = %+v", msg)
	}

	// Middle chunk corrupted in transit: its payload no longer matches
	// the declared fingerprint.
	bad := [][]byte{chunks[0], []byte("CORRUPT"), chunks[2]}
	if err := conn.Send(proto.ChunkBatch{SessionID: sess, FPs: fps, Data: bad}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if ack := msg.(proto.Ack); ack.OK {
		t.Fatal("corrupt batch accepted")
	}

	// Retry with the correct payloads. An accepted batch gets no reply,
	// so the file's FileMeta follows it: replies come in request order,
	// and a refusal of the batch would arrive in place of its Ack.
	if err := conn.Send(proto.ChunkBatch{SessionID: sess, FPs: fps, Data: chunks}); err != nil {
		t.Fatal(err)
	}
	entry := proto.FileEntry{Path: "abc.bin", Mode: 0o644, Size: int64(len("alphabetagamma")), Chunks: fps, Sizes: sizes}
	if err := conn.Send(proto.FileMeta{SessionID: sess, Entry: entry}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	}
	if ack := msg.(proto.Ack); !ack.OK {
		t.Fatalf("correct batch or its FileMeta refused: %s", ack.Err)
	}

	if err := conn.Send(proto.BackupEnd{SessionID: sess}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	}
	done := msg.(proto.BackupDone)
	// Exactly one accepted copy of each chunk: the rejected batch must
	// contribute nothing to the transfer accounting.
	wantXfer := int64(len(chunks)*(fp.Size+1) + len("alphabetagamma"))
	if done.TransferredBytes != wantXfer {
		t.Fatalf("TransferredBytes = %d, want %d (failed batch must not count)",
			done.TransferredBytes, wantXfer)
	}
}

// TestBackupEndRefusedAfterRefusedBatch: a client learns that a
// ChunkBatch was refused only in place of a later reply, so its
// BackupEnd may already be on the wire. While the refused chunks are
// owed — no later batch delivered them — the server must refuse
// BackupEnd, and the run must never complete.
func TestBackupEndRefusedAfterRefusedBatch(t *testing.T) {
	_, _, addr := startServer(t, nil)

	conn, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.BackupStart{JobName: "owed", Client: "c", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sess := msg.(proto.BackupStartOK).SessionID

	chunk := []byte("a chunk corrupted in transit and never re-sent")
	f := fp.New(chunk)
	entry := proto.FileEntry{Path: "owed.bin", Mode: 0o644, Size: int64(len(chunk)), Chunks: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))}}
	// The whole tail of the backup goes out before any reply is read,
	// as a pipelined client sends it.
	for _, req := range []any{
		proto.FPBatch{SessionID: sess, FPs: entry.Chunks, Sizes: entry.Sizes},
		proto.ChunkBatch{SessionID: sess, FPs: entry.Chunks, Data: [][]byte{[]byte("CORRUPT")}},
		proto.FileMeta{SessionID: sess, Entry: entry},
		proto.BackupEnd{SessionID: sess},
	} {
		if err := conn.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"FPVerdicts", "refusal", "Ack", "refusal"}
	for i, w := range want {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var got string
		switch m := msg.(type) {
		case proto.FPVerdicts:
			got = "FPVerdicts"
		case proto.Ack:
			got = "Ack"
			if !m.OK {
				got = "refusal"
			}
		default:
			got = fmt.Sprintf("%T", msg)
		}
		if got != w {
			t.Fatalf("reply %d = %s %+v, want %s", i, got, msg, w)
		}
	}

	// The run never completed, so the job has nothing to restore.
	if _, err := client.New(addr, "r").Restore("owed", t.TempDir()); err == nil {
		t.Fatal("restore of a run whose BackupEnd was refused succeeded")
	}
}
