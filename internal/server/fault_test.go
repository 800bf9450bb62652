package server_test

import (
	"errors"
	"testing"
	"time"

	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/server"
	"debar/internal/store"
)

// TestChunkBatchAckHeldForWALSync is the durability-point regression
// test. An accepted ChunkBatch gets no reply, so nothing waits on its
// group-commit window; with the WAL's sync failing, that window's
// failure must latch the store read-only on its own, and BackupEnd —
// the durability point — must be refused instead of promising a run
// the disk never made durable. The batch must never be answered OK.
func TestChunkBatchAckHeldForWALSync(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected media failure")
	eng.ChunkLog().SetSyncFailFunc(func() error { return injected })
	t.Cleanup(func() { eng.ChunkLog().SetSyncFailFunc(nil) })
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })

	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.BackupStart{JobName: "sync-fail-job", Client: "c1", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ok, is := msg.(proto.BackupStartOK)
	if !is {
		t.Fatalf("BackupStart reply = %T %+v", msg, msg)
	}

	chunk := []byte("chunk whose run must not complete without the covering fsync")
	f := fp.New(chunk)
	if err := conn.Send(proto.FPBatch{
		SessionID: ok.SessionID, Seq: 0, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	} else if v, is := msg.(proto.FPVerdicts); !is || len(v.Verdicts) != 1 || !v.NeedsTransfer(0) {
		t.Fatalf("FPBatch reply = %T %+v, want verdicts=[send]", msg, msg)
	}

	if err := conn.Send(proto.ChunkBatch{
		SessionID: ok.SessionID, FPs: []fp.FP{f}, Data: [][]byte{chunk},
	}); err != nil {
		t.Fatal(err)
	}
	// Nobody waits on the batch's window, yet its failed sync latches
	// the store.
	deadline := time.Now().Add(10 * time.Second)
	for eng.ReadOnlyErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("failed WAL window sync never latched the store read-only")
		}
		time.Sleep(time.Millisecond)
	}

	// Replies come in request order, so the first frame after the batch
	// answers BackupEnd: a read-only refusal, not an OK for the batch.
	if err := conn.Send(proto.BackupEnd{SessionID: ok.SessionID}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	} else if ack, is := msg.(proto.Ack); !is || ack.OK {
		t.Fatalf("BackupEnd over a failing sync layer = %T %+v, want refused Ack", msg, msg)
	} else if ack.Code != proto.CodeReadOnly {
		t.Fatalf("BackupEnd refusal code = %v, want %v", ack.Code, proto.CodeReadOnly)
	}

	// The latch refuses a fresh session up front.
	c2, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Send(proto.BackupStart{JobName: "after-fail", Client: "c2", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if msg, err = c2.Recv(); err != nil {
		t.Fatal(err)
	} else if ack, is := msg.(proto.Ack); !is || ack.OK || ack.Code != proto.CodeReadOnly {
		t.Fatalf("BackupStart after failed sync = %T %+v, want read-only refusal", msg, msg)
	}
}

// TestIdleSessionReaped is the reaper regression test: a client opens a
// backup session, ships one chunk, and vanishes without closing the
// connection (no FIN ever arrives — the handler can only notice via its
// idle read deadline). The server must reap the session, and the orphaned
// chunk must stay a record in the chunk log — dedup-2's work queue — so
// the next pass stores it.
func TestIdleSessionReaped(t *testing.T) {
	_, srv, srvAddr := startServer(t, func(c *server.Config) { c.IdleTimeout = 300 * time.Millisecond })

	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.BackupStart{JobName: "reap-job", Client: "ghost", Version: proto.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ok, is := msg.(proto.BackupStartOK)
	if !is {
		t.Fatalf("BackupStart reply = %T %+v", msg, msg)
	}
	sess := ok.SessionID

	chunk := []byte("orphaned chunk payload that must survive the vanished session")
	f := fp.New(chunk)
	if err := conn.Send(proto.FPBatch{
		SessionID: sess, Seq: 0, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	msg, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	verdicts, is := msg.(proto.FPVerdicts)
	if !is || len(verdicts.Verdicts) != 1 || !verdicts.NeedsTransfer(0) {
		t.Fatalf("FPBatch reply = %T %+v, want verdicts=[send]", msg, msg)
	}
	if err := conn.Send(proto.ChunkBatch{
		SessionID: sess, FPs: []fp.FP{f}, Data: [][]byte{chunk},
	}); err != nil {
		t.Fatal(err)
	}
	// An accepted ChunkBatch gets no reply: the re-offer's verdict,
	// answered after it, proves the chunk was logged.
	if err := conn.Send(proto.FPBatch{
		SessionID: sess, Seq: 1, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.Recv(); err != nil {
		t.Fatal(err)
	} else if v, is := msg.(proto.FPVerdicts); !is || len(v.Verdicts) != 1 || v.NeedsTransfer(0) {
		t.Fatalf("re-offer after ChunkBatch = %T %+v, want verdicts=[skip]", msg, msg)
	}

	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d before the idle reap, want 1", n)
	}

	// Go silent. The TCP connection stays open (no Close), so only the
	// idle read deadline can free the handler and reclaim the session.
	deadline := time.Now().Add(10 * time.Second)
	for srv.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The orphaned chunk's record reaches dedup-2: exactly the one
	// orphaned chunk gets stored.
	c2, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Send(proto.Dedup2Request{}); err != nil {
		t.Fatal(err)
	}
	msg, err = c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	done, is := msg.(proto.Dedup2Done)
	if !is {
		t.Fatalf("Dedup2Request reply = %T %+v", msg, msg)
	}
	if done.Err != "" {
		t.Fatalf("dedup-2 after reap failed: %s", done.Err)
	}
	if done.NewChunks != 1 {
		t.Fatalf("dedup-2 stored %d new chunks, want the 1 reclaimed orphan", done.NewChunks)
	}
}
