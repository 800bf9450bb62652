package server_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"debar/internal/client"
	"debar/internal/fp"
	"debar/internal/proto"
)

// TestCrossSessionLogDedup is the cross-session log-dedup regression
// test. Two concurrent sessions offer the same chunk: the per-session
// preliminary filters cannot see each other, so before the chunk log's
// logged-fingerprint set both sessions were told "transfer it" and the
// chunk hit the log twice. Session A ships the chunk; session B, racing
// it, must get need=false — and B's recipe, which then references a
// chunk only A ever transferred, must still restore byte-identical
// after dedup-2.
func TestCrossSessionLogDedup(t *testing.T) {
	dir, _, srvAddr := startServer(t, nil)

	startSession := func(job, cl string) (*proto.Conn, uint64) {
		t.Helper()
		conn, err := proto.Dial(srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.Send(proto.BackupStart{JobName: job, Client: cl, Version: proto.ProtocolVersion}); err != nil {
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
		return conn, ok.SessionID
	}

	chunk := bytes.Repeat([]byte("shared content both sessions scan "), 64)
	f := fp.New(chunk)
	entry := proto.FileEntry{
		Path: "x.bin", Mode: 0o644, Size: int64(len(chunk)),
		Chunks: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}

	connA, sessA := startSession("xs-job-a", "a")
	connB, sessB := startSession("xs-job-b", "b")

	// Session A offers and ships the chunk.
	if err := connA.Send(proto.FPBatch{
		SessionID: sessA, Seq: 0, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connA.Recv(); err != nil {
		t.Fatal(err)
	} else if v, is := msg.(proto.FPVerdicts); !is || len(v.Verdicts) != 1 || !v.NeedsTransfer(0) {
		t.Fatalf("session A FPBatch reply = %T %+v, want verdicts=[send]", msg, msg)
	}
	if err := connA.Send(proto.ChunkBatch{
		SessionID: sessA, FPs: []fp.FP{f}, Data: [][]byte{append([]byte{}, chunk...)},
	}); err != nil {
		t.Fatal(err)
	}
	// An accepted ChunkBatch gets no reply; A's next FPBatch is answered
	// after it, and A's own re-offer is now a logged duplicate.
	if err := connA.Send(proto.FPBatch{
		SessionID: sessA, Seq: 1, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connA.Recv(); err != nil {
		t.Fatal(err)
	} else if v, is := msg.(proto.FPVerdicts); !is || len(v.Verdicts) != 1 || v.NeedsTransfer(0) {
		t.Fatalf("session A re-offer after ChunkBatch = %T %+v, want verdicts=[skip]", msg, msg)
	}

	// Session B offers the same chunk while A's session is still open.
	// B's own filter has never seen it, so only the server-wide logged
	// map can answer need=false.
	if err := connB.Send(proto.FPBatch{
		SessionID: sessB, Seq: 0, FPs: []fp.FP{f}, Sizes: []uint32{uint32(len(chunk))},
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connB.Recv(); err != nil {
		t.Fatal(err)
	} else if v, is := msg.(proto.FPVerdicts); !is || len(v.Verdicts) != 1 || v.NeedsTransfer(0) {
		t.Fatalf("session B FPBatch reply = %T %+v, want verdicts=[skip] (chunk already logged by A)", msg, msg)
	}

	// B records a file referencing the chunk it never transferred, then
	// completes. BackupEnd's durability barrier must cover A's append.
	if err := connB.Send(proto.FileMeta{SessionID: sessB, Entry: entry}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connB.Recv(); err != nil {
		t.Fatal(err)
	} else if ack, is := msg.(proto.Ack); !is || !ack.OK {
		t.Fatalf("session B FileMeta reply = %T %+v", msg, msg)
	}
	if err := connB.Send(proto.BackupEnd{SessionID: sessB}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connB.Recv(); err != nil {
		t.Fatal(err)
	} else if done, is := msg.(proto.BackupDone); !is {
		t.Fatalf("session B BackupEnd reply = %T %+v", msg, msg)
	} else if done.NewFingerprints != 0 {
		t.Fatalf("session B reported %d new fingerprints, want 0 (deduped against A's append)", done.NewFingerprints)
	}

	// A completes too (it owns the only transfer of the chunk).
	if err := connA.Send(proto.FileMeta{SessionID: sessA, Entry: entry}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connA.Recv(); err != nil {
		t.Fatal(err)
	} else if ack, is := msg.(proto.Ack); !is || !ack.OK {
		t.Fatalf("session A FileMeta reply = %T %+v", msg, msg)
	}
	if err := connA.Send(proto.BackupEnd{SessionID: sessA}); err != nil {
		t.Fatal(err)
	}
	if msg, err := connA.Recv(); err != nil {
		t.Fatal(err)
	} else if _, is := msg.(proto.BackupDone); !is {
		t.Fatalf("session A BackupEnd reply = %T %+v", msg, msg)
	}

	// Dedup-2 moves the single logged copy into a container and
	// retires its WAL segment; B's recipe must restore through it.
	if err := dir.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	n, err := client.New(srvAddr, "restore-b").Restore("xs-job-b", dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d files, want 1", n)
	}
	got, err := os.ReadFile(filepath.Join(dst, "x.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunk) {
		t.Fatalf("restored x.bin differs (%d vs %d bytes)", len(got), len(chunk))
	}
}
