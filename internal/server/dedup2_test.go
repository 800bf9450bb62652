package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"debar/internal/client"
	"debar/internal/fp"
	"debar/internal/obs"
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
		if err := d.TriggerDedup2(); err != nil {
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
		if err := d.TriggerDedup2(); err != nil {
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
		if err := d.TriggerDedup2(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.TriggerDedup2(); err != nil {
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

// liveSession is one backup session driven frame by frame over its own
// connection, so a test can hold it open across dedup-2 passes.
type liveSession struct {
	t      *testing.T
	conn   *proto.Conn
	id     uint64
	entry  proto.FileEntry // the session's one file: chunk i is chunks[i]
	chunks [][]byte
}

// openLiveSession starts a session of job on srvAddr whose one file,
// live.bin, is n distinct chunks.
func openLiveSession(t *testing.T, srvAddr, job string, n int) *liveSession {
	t.Helper()
	var chunks [][]byte
	for i := range n {
		chunks = append(chunks, bytes.Repeat([]byte(fmt.Sprintf("%s chunk %02d ", job, i)), 64))
	}
	return openSessionWith(t, srvAddr, job, chunks)
}

// openSessionWith starts a session of job on srvAddr whose one file,
// live.bin, is chunks.
func openSessionWith(t *testing.T, srvAddr, job string, chunks [][]byte) *liveSession {
	t.Helper()
	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ls := &liveSession{t: t, conn: conn}
	for _, c := range chunks {
		ls.chunks = append(ls.chunks, c)
		ls.entry.Chunks = append(ls.entry.Chunks, fp.New(c))
		ls.entry.Sizes = append(ls.entry.Sizes, uint32(len(c)))
		ls.entry.Size += int64(len(c))
	}
	ls.entry.Path, ls.entry.Mode = "live.bin", 0o644
	start, ok := ls.call(proto.BackupStart{JobName: job, Client: "live", Version: proto.ProtocolVersion}).(proto.BackupStartOK)
	if !ok {
		t.Fatal("BackupStart refused")
	}
	ls.id = start.SessionID
	return ls
}

func (ls *liveSession) call(req any) any {
	ls.t.Helper()
	if err := ls.conn.Send(req); err != nil {
		ls.t.Fatal(err)
	}
	msg, err := ls.conn.Recv()
	if err != nil {
		ls.t.Fatal(err)
	}
	return msg
}

// offer sends chunks [lo, hi) as one FPBatch and returns which of them
// the server asked for.
func (ls *liveSession) offer(seq uint64, lo, hi int) []bool {
	ls.t.Helper()
	v, ok := ls.call(proto.FPBatch{SessionID: ls.id, Seq: seq, FPs: ls.entry.Chunks[lo:hi], Sizes: ls.entry.Sizes[lo:hi]}).(proto.FPVerdicts)
	if !ok || len(v.Verdicts) != hi-lo {
		ls.t.Fatalf("FPBatch %d: want %d verdicts", seq, hi-lo)
	}
	need := make([]bool, hi-lo)
	for i := range need {
		need[i] = v.NeedsTransfer(i)
	}
	return need
}

// ship offers chunks [lo, hi), which must all be new, and sends them.
// An accepted ChunkBatch gets no reply, so ship re-offers the chunks:
// replies come in request order, and every chunk must now be logged.
func (ls *liveSession) ship(seq uint64, lo, hi int) {
	ls.t.Helper()
	for i, need := range ls.offer(seq, lo, hi) {
		if !need {
			ls.t.Fatalf("FPBatch %d: chunk %d not requested", seq, lo+i)
		}
	}
	data := make([][]byte, 0, hi-lo)
	for _, c := range ls.chunks[lo:hi] {
		data = append(data, append([]byte(nil), c...))
	}
	if err := ls.conn.Send(proto.ChunkBatch{SessionID: ls.id, FPs: ls.entry.Chunks[lo:hi], Data: data}); err != nil {
		ls.t.Fatal(err)
	}
	for i, need := range ls.offer(seq, lo, hi) {
		if need {
			ls.t.Fatalf("ChunkBatch %d: chunk %d not logged", seq, lo+i)
		}
	}
}

// end records the file and ends the session, then restores the job and
// byte-compares the file.
func (ls *liveSession) end(srvAddr, job string) {
	ls.t.Helper()
	if ack, ok := ls.call(proto.FileMeta{SessionID: ls.id, Entry: ls.entry}).(proto.Ack); !ok || !ack.OK {
		ls.t.Fatal("FileMeta refused")
	}
	if _, ok := ls.call(proto.BackupEnd{SessionID: ls.id}).(proto.BackupDone); !ok {
		ls.t.Fatal("BackupEnd refused")
	}
	dst := ls.t.TempDir()
	if _, err := client.New(srvAddr, "restore-live").Restore(job, dst); err != nil {
		ls.t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, ls.entry.Path))
	if err != nil {
		ls.t.Fatal(err)
	}
	if want := bytes.Join(ls.chunks, nil); !bytes.Equal(got, want) {
		ls.t.Fatalf("restored %s differs (%d vs %d bytes)", ls.entry.Path, len(got), len(want))
	}
}

// walSize returns the bytes on disk of the engine's chunk-log WAL: its
// segments and the spares kept for reuse.
func walSize(t *testing.T, eng *store.Engine) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(eng.Dir(), "wal", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// checkRetired fails unless the engine's chunk log holds no unconsumed
// record and its WAL no more than the bytes the last pass retired.
func checkRetired(t *testing.T, eng *store.Engine, retired int64) {
	t.Helper()
	if n := eng.ChunkLog().Count(); n != 0 {
		t.Fatalf("chunk log holds %d unconsumed records after a caught-up pass, want 0", n)
	}
	if size := walSize(t, eng); size > retired {
		t.Fatalf("WAL holds %d bytes after a caught-up pass, want at most the %d it retired", size, retired)
	}
}

// TestDedup2ConsumesLiveSession: the chunk log is dedup-2's work queue,
// so a pass stores the logged chunks of a session that is still open and
// retires the WAL segment under it. Session A stays open with n logged
// chunks: pass 1 stores all n and leaves no unconsumed record. A then
// logs m more: pass 2 stores exactly those m and re-walks none of the
// first n. After A ends, its file restores byte-identical.
func TestDedup2ConsumesLiveSession(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })

	const n, m = 6, 4
	a := openLiveSession(t, srvAddr, "live-job", n+m)
	a.ship(0, 0, n)
	size := walSize(t, eng)
	if done := runDedup2Direct(t, srvAddr); done.NewChunks != n {
		t.Fatalf("pass 1 with the session open stored %d chunks, want %d", done.NewChunks, n)
	}
	checkRetired(t, eng, size)

	a.ship(1, n, n+m)
	if done := runDedup2Direct(t, srvAddr); done.NewChunks != m || done.DupChunks != 0 {
		t.Fatalf("pass 2 = %d new / %d dup chunks, want %d / 0", done.NewChunks, done.DupChunks, m)
	}
	a.end(srvAddr, "live-job")
}

// TestDedup2FailedPassConsumesNothing: a pass is one transaction over the
// chunk log. When its container append fails, the pass reports the error
// and consumes nothing: the WAL keeps every record, and the log's logged
// set still answers the chunks' re-offer with "don't transfer". The retry
// stores every chunk, retires the WAL segment, and the file restores.
func TestDedup2FailedPassConsumesNothing(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })

	const n = 8
	a := openLiveSession(t, srvAddr, "failed-pass-job", n)
	a.ship(0, 0, n)
	size := walSize(t, eng)

	eng.SegRepo().SetFailFunc(func() error { return syscall.EIO })
	if done := sendDedup2(t, srvAddr); done.Err == "" {
		t.Fatalf("pass with a failing container append succeeded: %+v", done)
	}
	eng.SegRepo().SetFailFunc(nil)
	if got := walSize(t, eng); got != size {
		t.Fatalf("failed pass changed the WAL: %d -> %d bytes", size, got)
	}
	if c := eng.ChunkLog().Count(); c != n {
		t.Fatalf("failed pass left %d pending records, want %d", c, n)
	}
	for i, need := range a.offer(1, 0, n) {
		if need {
			t.Fatalf("chunk %d requested again after a failed pass", i)
		}
	}

	if done := runDedup2Direct(t, srvAddr); done.NewChunks != n {
		t.Fatalf("retried pass stored %d chunks, want %d", done.NewChunks, n)
	}
	checkRetired(t, eng, size)
	a.end(srvAddr, "failed-pass-job")
}

// TestDedup2AlwaysRunsSIU: a Dedup2Request always gets a whole pass,
// SIU included: every stored chunk is in the disk index and the WAL
// segment retired when the reply arrives.
func TestDedup2AlwaysRunsSIU(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })

	const n = 5
	a := openLiveSession(t, srvAddr, "siu-job", n)
	a.ship(0, 0, n)
	size := walSize(t, eng)
	if done := sendDedup2(t, srvAddr); done.Err != "" || done.NewChunks != n {
		t.Fatalf("pass = %+v, want %d new chunks", done, n)
	}
	for i, f := range a.entry.Chunks {
		if _, err := eng.Index().Lookup(f); err != nil {
			t.Fatalf("chunk %d not in the index after the pass: %v", i, err)
		}
	}
	checkRetired(t, eng, size)
	a.end(srvAddr, "siu-job")
}

// TestDedup2ReadsOnlyNewBytes: one session stays open across 10 passes,
// logging one new chunk before each, while another session per pass backs
// up eight more. Each pass reads from the WAL exactly the records of the
// chunks it stores — dedup2_pass_read_bytes_total grows by their framed
// bytes, and by nothing on the pass whose chunks are all duplicates of
// stored ones — and after each the WAL holds no unconsumed record and
// stays under two passes' worth of bytes on disk.
func TestDedup2ReadsOnlyNewBytes(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	readBytes := obs.GetCounter("dedup2_pass_read_bytes_total")
	framed := func(chunks [][]byte) (n int64) {
		for _, c := range chunks {
			n += 4 + fp.Size + 4 + int64(len(c))
		}
		return n
	}

	const passes, dupPass = 10, 6
	open := openLiveSession(t, srvAddr, "open-job", passes)
	var worth int64 // the most WAL bytes one pass has logged
	var last [][]byte
	for p := range passes {
		var stored [][]byte // the chunks this pass must store
		logged := int64(0)
		if p == dupPass {
			// A new job re-sends the previous pass's chunks: every one is
			// logged, and SIL proves every one a duplicate.
			dup := openSessionWith(t, srvAddr, "dup-job", last)
			dup.ship(0, 0, len(last))
			logged += framed(last)
			dup.end(srvAddr, "dup-job")
		} else {
			open.ship(uint64(p), p, p+1)
			stored = append(stored, open.chunks[p])
			job := fmt.Sprintf("pass-%d", p)
			b := openLiveSession(t, srvAddr, job, 8)
			b.ship(0, 0, 8)
			stored = append(stored, b.chunks...)
			b.end(srvAddr, job)
			last = b.chunks
		}
		logged += framed(stored)
		worth = max(worth, logged)

		before := readBytes.Value()
		done := runDedup2Direct(t, srvAddr)
		if done.NewChunks != int64(len(stored)) {
			t.Fatalf("pass %d stored %d chunks, want %d", p, done.NewChunks, len(stored))
		}
		if got, want := readBytes.Value()-before, framed(stored); got != want {
			t.Fatalf("pass %d read %d WAL bytes, want the %d of the chunks it stored", p, got, want)
		}
		if n := eng.ChunkLog().Count(); n != 0 {
			t.Fatalf("pass %d left %d unconsumed records", p, n)
		}
		if size := walSize(t, eng); size >= 2*worth {
			t.Fatalf("pass %d: WAL holds %d bytes on disk, want under two passes' worth (%d)", p, size, 2*worth)
		}
	}
	// The chunk the open session skipped at the duplicate pass is still in
	// the WAL when the session ends: its restore reads it from there.
	open.ship(passes, dupPass, dupPass+1)
	open.end(srvAddr, "open-job")
}
