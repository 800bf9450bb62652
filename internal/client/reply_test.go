package client_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"debar/internal/client"
	"debar/internal/proto"
)

// fakeServer serves each accepted connection with handle on loopback
// and returns its address and the number of connections accepted.
func fakeServer(t *testing.T, handle func(*proto.Conn)) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				conn := proto.NewConn(c)
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), &conns
}

// oneFileDir returns a directory holding one small file.
func oneFileDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f.bin"), []byte(strings.Repeat("payload ", 512)), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestBackupRefusalInPlaceOfVerdicts: a refused ChunkBatch is answered
// only in place of the reply to a later request, so the client must
// take a refusal Ack wherever it arrives — here where FPVerdicts were
// expected — as fatal to the attempt, keep its read-only code, and not
// retry.
func TestBackupRefusalInPlaceOfVerdicts(t *testing.T) {
	addr, conns := fakeServer(t, func(conn *proto.Conn) {
		if msg, err := conn.Recv(); err != nil {
			return
		} else if _, ok := msg.(proto.BackupStart); !ok {
			t.Errorf("first frame = %T, want BackupStart", msg)
			return
		}
		if err := conn.Send(proto.BackupStartOK{SessionID: 1, Version: proto.ProtocolVersion}); err != nil {
			return
		}
		if msg, err := conn.Recv(); err != nil {
			return
		} else if _, ok := msg.(proto.FPBatch); !ok {
			t.Errorf("second frame = %T, want FPBatch", msg)
			return
		}
		if err := conn.Send(proto.Ack{Code: proto.CodeReadOnly, Err: "store is read-only"}); err != nil {
			return
		}
		for { // until the client hangs up
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})

	c := newTestClient(addr)
	done := make(chan error, 1)
	go func() {
		_, err := c.Backup("refused-job", oneFileDir(t))
		done <- err
	}()
	select {
	case err := <-done:
		if !proto.IsReadOnly(err) {
			t.Fatalf("Backup = %v, want a read-only refusal", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("backup wedged after a refusal in place of verdicts")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client connected %d times, want 1 (a refusal is not retried)", n)
	}
}

// TestBackupRefusesOldServer: a server below ProtocolVersion is refused
// right after its BackupStartOK, and the client sends nothing more. A
// version-2 server acknowledges every ChunkBatch, which this client would
// mistake for the reply to its next request; a version-3 server decodes
// only gob control frames.
func TestBackupRefusesOldServer(t *testing.T) {
	for _, version := range []int{2, 3} {
		next := make(chan any, 1) // the frame after BackupStart, or the read error
		addr, _ := fakeServer(t, func(conn *proto.Conn) {
			if _, err := conn.Recv(); err != nil {
				return
			}
			if err := conn.Send(proto.BackupStartOK{SessionID: 1, Version: version}); err != nil {
				return
			}
			msg, err := conn.Recv()
			if err != nil {
				next <- err
				return
			}
			next <- msg
		})

		c := client.New(addr, "new-client")
		c.Options.Retries = -1
		_, err := c.Backup("old-server-job", oneFileDir(t))
		if want := fmt.Sprintf("protocol version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Backup against a version-%d server = %v, want a protocol version error", version, err)
		}
		select {
		case got := <-next:
			if _, isErr := got.(error); !isErr {
				t.Fatalf("client sent %T to a refused version-%d server", got, version)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("client kept the refused version-%d server's connection open", version)
		}
	}
}
