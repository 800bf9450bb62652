package server_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"debar/internal/obs"
	"debar/internal/proto"
	"debar/internal/server"
)

// runDedup2Direct asks the server itself for a dedup-2 pass and returns
// the outcome frame (the director's trigger path discards the counters
// these tests assert on).
func runDedup2Direct(t *testing.T, srvAddr string) proto.Dedup2Done {
	t.Helper()
	done := sendDedup2(t, srvAddr)
	if done.Err != "" {
		t.Fatalf("dedup-2 failed: %s", done.Err)
	}
	return done
}

// sendDedup2 sends one Dedup2Request to the server and returns its
// reply, failed passes included.
func sendDedup2(t *testing.T, srvAddr string) proto.Dedup2Done {
	t.Helper()
	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.Dedup2Request{}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	done, is := msg.(proto.Dedup2Done)
	if !is {
		t.Fatalf("Dedup2Request reply = %T %+v", msg, msg)
	}
	return done
}

// restoreAndCompare restores job into a fresh directory and byte-compares
// it against the expected tree.
func restoreAndCompare(t *testing.T, srvAddr, job string, files map[string][]byte) {
	t.Helper()
	dst := t.TempDir()
	c := testClient(srvAddr)
	n, err := c.Restore(job, dst)
	if err != nil {
		t.Fatalf("restore %s: %v", job, err)
	}
	if n != len(files) {
		t.Fatalf("restore %s returned %d files, want %d", job, n, len(files))
	}
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(dst, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore %s: %s not byte-identical", job, rel)
		}
	}
}

// TestInlineDedupDedup2Equivalence proves the fast path changes only
// where duplicates are detected, never what the store converges on.
// Generation one lands a dataset and dedup-2 moves it into containers;
// generation two re-offers the same data under a fresh job name, so the
// job-chain filter is empty and only the inline index probe (or, with it
// off, the out-of-line SIL pass) can catch the duplicates. In BOTH modes
// the second dedup-2 pass must store zero new chunks and seal zero
// containers, and both generations must restore byte-identically —
// inline skip verdicts and dedup-2's decisions are the same decisions,
// made earlier.
func TestInlineDedupDedup2Equivalence(t *testing.T) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"inline-on", false},
		{"inline-off", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, _, srvAddr := startServer(t, func(c *server.Config) { c.DisableInlineDedup = mode.disable })
			src := t.TempDir()
			files := writeTree(t, src, 9)
			c := testClient(srvAddr)

			gen1, err := c.Backup("eq-gen1", src)
			if err != nil {
				t.Fatal(err)
			}
			done1 := runDedup2Direct(t, srvAddr)
			if done1.NewChunks == 0 {
				t.Fatal("first-generation dedup-2 stored nothing: index never populated")
			}

			gen2, err := c.Backup("eq-gen2", src)
			if err != nil {
				t.Fatal(err)
			}
			done2 := runDedup2Direct(t, srvAddr)
			// The equivalence claim: whether duplicates were skipped inline
			// (nothing re-logged, nothing for the pass to read) or shipped and caught
			// out-of-line by SIL, the pass stores no chunk twice and seals
			// no container. DupChunks legitimately differs between modes —
			// inline hits never reach dedup-2 to be counted.
			if done2.NewChunks != 0 || done2.Containers != 0 {
				t.Fatalf("second-generation dedup-2 stored new=%d containers=%d, want 0/0",
					done2.NewChunks, done2.Containers)
			}

			if mode.disable {
				if gen2.InlineSkippedBytes != 0 {
					t.Fatalf("inline disabled but %d bytes reported skipped", gen2.InlineSkippedBytes)
				}
			} else {
				if gen2.InlineSkippedBytes == 0 {
					t.Fatal("inline enabled but no bytes reported skipped on a duplicate generation")
				}
				if gen2.TransferredBytes >= gen1.TransferredBytes/10 {
					t.Fatalf("inline second generation transferred %d (first %d): fast path not cutting the wire",
						gen2.TransferredBytes, gen1.TransferredBytes)
				}
			}

			restoreAndCompare(t, srvAddr, "eq-gen1", files)
			restoreAndCompare(t, srvAddr, "eq-gen2", files)
		})
	}
}

// TestMixedVersionInterop downgrades each side of the capability
// negotiation in turn: a client offering no capabilities against a server
// with the fast path on, and a capable client against a server with it
// disabled. Both sessions must negotiate down to no capabilities with no
// errors, no inline skips, and byte-identical restores.
func TestMixedVersionInterop(t *testing.T) {
	t.Run("old-client-new-server", func(t *testing.T) {
		d, _, srvAddr := startServer(t, nil)
		src := t.TempDir()
		files := writeTree(t, src, 21)
		c := testClient(srvAddr)
		c.Options.DisableInlineDedup = true // offers no capabilities

		first, err := c.Backup("interop-a", src)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.TriggerDedup2(); err != nil {
			t.Fatal(err)
		}
		second, err := c.Backup("interop-a", src)
		if err != nil {
			t.Fatal(err)
		}
		if second.InlineSkippedBytes != 0 {
			t.Fatalf("capability-less session reported %d inline-skipped bytes", second.InlineSkippedBytes)
		}
		// The downgrade keeps current behaviour: the job-chain filter still
		// cuts the duplicate generation.
		if second.TransferredBytes > first.TransferredBytes/10 {
			t.Fatalf("downgraded second run transferred %d (first %d): job chain not filtering",
				second.TransferredBytes, first.TransferredBytes)
		}
		restoreAndCompare(t, srvAddr, "interop-a", files)
	})

	t.Run("new-client-old-server", func(t *testing.T) {
		d, _, srvAddr := startServer(t, func(c *server.Config) { c.DisableInlineDedup = true })
		src := t.TempDir()
		files := writeTree(t, src, 22)
		c := testClient(srvAddr) // offers CapInlineDedup; the server refuses it

		first, err := c.Backup("interop-b", src)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.TriggerDedup2(); err != nil {
			t.Fatal(err)
		}
		second, err := c.Backup("interop-b", src)
		if err != nil {
			t.Fatal(err)
		}
		if second.InlineSkippedBytes != 0 {
			t.Fatalf("refused capability still produced %d inline-skipped bytes", second.InlineSkippedBytes)
		}
		if second.TransferredBytes > first.TransferredBytes/10 {
			t.Fatalf("second run transferred %d (first %d): job chain not filtering",
				second.TransferredBytes, first.TransferredBytes)
		}
		restoreAndCompare(t, srvAddr, "interop-b", files)
	})
}

// TestPreVersionPeerRefused: a BackupStart whose Version is below
// ProtocolVersion — zero, as a peer predating the field reports, or the
// previous version — is refused with the typed unsupported-version code
// before the server opens a session. (A real version-3 peer opens with a
// gob frame instead; TestLegacyGobPeerRefused covers it.)
func TestPreVersionPeerRefused(t *testing.T) {
	_, srv, srvAddr := startServer(t, nil)

	for _, version := range []int{0, proto.ProtocolVersion - 1} {
		conn, err := proto.Dial(srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(proto.BackupStart{JobName: "old-wire", Client: "old", Version: version}); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ack, is := msg.(proto.Ack)
		if !is || ack.OK || ack.Code != proto.CodeUnsupportedVersion {
			t.Fatalf("version-%d BackupStart reply = %T %+v, want unsupported-version refusal", version, msg, msg)
		}
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("SessionCount = %d after a refused version-%d BackupStart, want 0", n, version)
		}
	}
}

// TestInlineDedupCutsWireBytes is the wire-savings acceptance test: a
// duplicate-heavy second generation under a FRESH job name (so the
// job-chain filter cannot help — only the inline index probe can answer
// before the bytes move) must cut chunk-data wire bytes by at least 80%
// versus the first generation, with the savings visible in both the
// server- and client-side counters.
func TestInlineDedupCutsWireBytes(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	files := writeTree(t, src, 11)
	c := testClient(srvAddr)

	base := obs.Default.Snapshot().Flatten()
	if _, err := c.Backup("wire-gen1", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	gen1 := snapshotDelta(base)
	if gen1("server_chunk_bytes_in_total") <= 0 {
		t.Fatal("first generation ingested no chunk bytes")
	}
	if gen1("server_backup_logical_bytes_total") <= 0 {
		t.Fatal("first generation recorded no logical bytes")
	}

	mid := obs.Default.Snapshot().Flatten()
	if _, err := c.Backup("wire-gen2", src); err != nil {
		t.Fatal(err)
	}
	gen2 := snapshotDelta(mid)

	if gen2("server_inline_dup_hits_total") < 1 {
		t.Fatal("duplicate generation produced no inline index hits")
	}
	if gen2("server_inline_skipped_bytes_total") <= 0 {
		t.Fatal("inline hits recorded but no skipped bytes")
	}
	if gen2("client_backup_skipped_chunks_total") < 1 || gen2("client_backup_skipped_bytes_total") <= 0 {
		t.Fatalf("client recorded no skips: chunks=%v bytes=%v",
			gen2("client_backup_skipped_chunks_total"), gen2("client_backup_skipped_bytes_total"))
	}
	// The acceptance bar: ≥80% of the chunk-data wire bytes gone.
	if gen2("server_chunk_bytes_in_total") > gen1("server_chunk_bytes_in_total")/5 {
		t.Fatalf("second generation moved %v chunk bytes (first %v): inline fast path saved <80%%",
			gen2("server_chunk_bytes_in_total"), gen1("server_chunk_bytes_in_total"))
	}
	// Same data, same logical volume: only the wire bytes shrank.
	if gen2("server_backup_logical_bytes_total") < gen1("server_backup_logical_bytes_total") {
		t.Fatalf("second generation logical %v < first %v for identical data",
			gen2("server_backup_logical_bytes_total"), gen1("server_backup_logical_bytes_total"))
	}

	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	restoreAndCompare(t, srvAddr, "wire-gen2", files)
}
