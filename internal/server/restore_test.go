package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"debar/internal/faultproxy"
	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/server"
	"debar/internal/store"
)

// writeBigFile writes one deterministic multi-chunk file and returns its
// content.
func writeBigFile(t *testing.T, dir, name string, size int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreWindowBoundsInFlightBatches drives the restore stream with a
// raw connection that withholds acknowledgements: the server must send
// exactly the granted window of batches and then stall — the wire-level
// guarantee that neither end ever buffers more than window × batch of
// chunk data — then resume one batch per credit once acks flow.
func TestRestoreWindowBoundsInFlightBatches(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	want := writeBigFile(t, src, "data.bin", 1<<20, 41)

	c := testClient(srvAddr)
	if _, err := c.Backup("win-job", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn := proto.NewConn(nc)
	conn.SetTimeouts(5*time.Second, 5*time.Second)
	defer conn.Close()

	const window = 2
	if err := conn.Send(proto.RestoreFile{
		JobName: "win-job", Path: "data.bin", BatchChunks: 16, Window: window,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	begin, ok := msg.(proto.RestoreBegin)
	if !ok {
		t.Fatalf("RestoreFile reply = %T %+v", msg, msg)
	}
	if begin.BatchChunks != 16 || begin.Window != window {
		t.Fatalf("granted batch=%d window=%d, requested 16/%d", begin.BatchChunks, begin.Window, window)
	}
	nBatches := (len(begin.Entry.Chunks) + 15) / 16
	if nBatches < 2*window+2 {
		t.Fatalf("only %d batches; test needs well over the %d-batch window", nBatches, window)
	}

	// Withhold acks: exactly `window` batches must arrive, then silence.
	// The stall probes shorten the connection's read deadline so a
	// correctly-stalled server surfaces as a quick timeout, not a hang.
	var got bytes.Buffer
	chunkIdx := 0
	takeBatch := func(wantSeq uint64) {
		t.Helper()
		msg, err := conn.Recv()
		if err != nil {
			t.Fatalf("receiving batch %d: %v", wantSeq, err)
		}
		b, ok := msg.(proto.RestoreChunkBatch)
		if !ok {
			t.Fatalf("expected batch %d, got %T %+v", wantSeq, msg, msg)
		}
		if b.Seq != wantSeq {
			t.Fatalf("batch seq %d, want %d", b.Seq, wantSeq)
		}
		for _, chunk := range b.Data {
			if fp.New(chunk) != begin.Entry.Chunks[chunkIdx] {
				t.Fatalf("chunk %d fingerprint mismatch", chunkIdx)
			}
			got.Write(chunk)
			chunkIdx++
		}
	}
	takeBatch(0)
	takeBatch(1)

	// The stall probe: with the window exhausted and no credits granted,
	// nothing may arrive.
	conn.SetTimeouts(400*time.Millisecond, 5*time.Second)
	if msg, err := conn.Recv(); err == nil {
		t.Fatalf("server sent %T beyond the unacknowledged window", msg)
	} else {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("stall probe error = %v, want read timeout", err)
		}
	}

	// One credit buys exactly one batch.
	conn.SetTimeouts(5*time.Second, 5*time.Second)
	if err := conn.Send(proto.RestoreAck{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	takeBatch(2)
	conn.SetTimeouts(400*time.Millisecond, 5*time.Second)
	if msg, err := conn.Recv(); err == nil {
		t.Fatalf("server sent %T after a single credit", msg)
	}

	// Release the stream and drain it to completion.
	conn.SetTimeouts(5*time.Second, 5*time.Second)
	for seq := uint64(1); seq < uint64(nBatches); seq++ {
		if err := conn.Send(proto.RestoreAck{Seq: seq}); err != nil {
			t.Fatal(err)
		}
		if seq+2 < uint64(nBatches) {
			takeBatch(seq + 2)
		}
	}
	msg, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	done, ok := msg.(proto.RestoreDone)
	if !ok {
		t.Fatalf("expected RestoreDone, got %T %+v", msg, msg)
	}
	if done.Err != "" {
		t.Fatalf("RestoreDone.Err = %q", done.Err)
	}
	if done.Bytes != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("reassembled %d bytes (server reports %d), want %d identical",
			got.Len(), done.Bytes, len(want))
	}
}

// TestRestoreInterruptedMidStream cuts the connection after a fixed
// number of server→client bytes (via the chaos proxy): the client
// must surface a clean error promptly and must not leave a partial file
// in the destination. Retries are disabled — this asserts the
// single-attempt failure path; retry-and-resume is covered by the chaos
// suite at the repo root.
func TestRestoreInterruptedMidStream(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	writeBigFile(t, src, "data.bin", 2<<20, 43)

	c := testClient(srvAddr)
	if _, err := c.Backup("cut-job", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	// Cut both sockets after 256 KB of server→client traffic —
	// mid-stream for a 2 MB restore.
	px, err := faultproxy.New(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(faultproxy.Plan{CutS2C: 256 << 10})

	rc := testClient(px.Addr())
	rc.Options.RestoreBatchSize = 32 // many batches: the cut lands mid-stream
	rc.Options.Retries = -1          // single attempt: the failure itself is under test
	dst := t.TempDir()
	// A pre-existing file at the destination must survive a failed
	// restore untouched: the stream lands in a temp file until verified.
	sentinel := []byte("previously restored, known good")
	if err := os.WriteFile(filepath.Join(dst, "data.bin"), sentinel, 0o644); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := rc.Restore("cut-job", dst)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("restore over a cut connection reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restore wedged after the connection was cut mid-stream")
	}
	got, err := os.ReadFile(filepath.Join(dst, "data.bin"))
	if err != nil || !bytes.Equal(got, sentinel) {
		t.Fatalf("pre-existing destination file damaged by interrupted restore (err=%v, %d bytes)", err, len(got))
	}
	ents, err := os.ReadDir(dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("interrupted restore left temp files behind: %v", ents)
	}
}

// TestRestoreClientGoneServerReclaimed abandons a restore stream without
// acknowledging anything and closes the connection: the server handler
// must unwind (not block forever in its ack wait), so Close returns
// promptly.
func TestRestoreClientGoneServerReclaimed(t *testing.T) {
	dir, srv, srvAddr := startServer(t, nil)

	src := t.TempDir()
	writeBigFile(t, src, "data.bin", 1<<20, 47)
	c := testClient(srvAddr)
	if _, err := c.Backup("gone-job", src); err != nil {
		t.Fatal(err)
	}
	if err := dir.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(proto.RestoreFile{
		JobName: "gone-job", Path: "data.bin", BatchChunks: 16, Window: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // RestoreBegin
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // first batch — server now awaits the ack
		t.Fatal(err)
	}
	conn.Close() // vanish without acking

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("server close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server Close blocked on an abandoned restore stream")
	}
}

// TestRestoreAbortInBand triggers a server-side mid-stream failure (a
// chunk no dedup-2 pass has stored is read from the WAL, and its record
// there is damaged) and checks the failure arrives in-band, after which
// the same connection still serves requests.
func TestRestoreAbortInBand(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	src := t.TempDir()
	writeBigFile(t, src, "data.bin", 256<<10, 53)
	c := testClient(srvAddr)
	if _, err := c.Backup("abort-job", src); err != nil {
		t.Fatal(err)
	}
	// No dedup-2: every chunk is in the WAL. Damage the records in the
	// middle of its segment, so the restore fails part-way through.
	segs, err := filepath.Glob(filepath.Join(eng.Dir(), "wal", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments %v, %v; want one", segs, err)
	}
	wal, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteAt(bytes.Repeat([]byte{0xA5}, 64<<10), 128<<10); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.RestoreFile{JobName: "abort-job", Path: "data.bin"}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(proto.RestoreBegin); !ok {
		t.Fatalf("expected RestoreBegin, got %T %+v", msg, msg)
	}
	// Drain until the in-band abort.
	for {
		msg, err = conn.Recv()
		if err != nil {
			t.Fatalf("stream error before in-band abort: %v", err)
		}
		b, isBatch := msg.(proto.RestoreChunkBatch)
		if isBatch {
			if err := conn.Send(proto.RestoreAck{Seq: b.Seq}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		done, isDone := msg.(proto.RestoreDone)
		if !isDone {
			t.Fatalf("unexpected %T during stream", msg)
		}
		if done.Err == "" {
			t.Fatal("restore of unstored chunks reported success")
		}
		break
	}
	// The connection must be back in the request loop.
	if err := conn.Send(proto.ListFiles{JobName: "abort-job"}); err != nil {
		t.Fatal(err)
	}
	msg, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	list, ok := msg.(proto.FileList)
	if !ok || len(list.Paths) != 1 {
		t.Fatalf("ListFiles after in-band abort = %T %+v", msg, msg)
	}

	// And the client-visible behaviour: Restore reports the error.
	if _, err := testClient(srvAddr).Restore("abort-job", t.TempDir()); err == nil {
		t.Fatal("client restore of unstored chunks succeeded")
	}
}

// TestRestoreRacesDedup2 restores each backup generation while its chunks
// are still in the WAL and, at the same time, a dedup-2 pass drains them,
// retires their WAL segment and recycles it for the next generation.
// Under the race detector every restore succeeds and is byte-identical:
// a chunk is read from the WAL before its segment retires, or from its
// container after.
func TestRestoreRacesDedup2(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	for g := range 6 {
		src := t.TempDir()
		want := writeBigFile(t, src, "data.bin", 192<<10, int64(100+g))
		job := fmt.Sprintf("race-%d", g)
		if _, err := testClient(srvAddr).Backup(job, src); err != nil {
			t.Fatal(err)
		}
		dsts := []string{t.TempDir(), t.TempDir()}
		errs := make(chan error, len(dsts)+1)
		var wg sync.WaitGroup
		for _, dst := range dsts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := testClient(srvAddr).Restore(job, dst); err != nil {
					errs <- fmt.Errorf("generation %d: %w", g, err)
					return
				}
				got, err := os.ReadFile(filepath.Join(dst, "data.bin"))
				if err != nil {
					errs <- err
				} else if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("generation %d restored different bytes", g)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.TriggerDedup2(); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
