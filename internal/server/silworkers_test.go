package server_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/server"
)

// sharded runs the server with 4 SIL workers, so the region-sharded
// dedup-2 path is exercised end to end regardless of the host's
// GOMAXPROCS (the config default derives from it and would fall back to
// the serialized path on a single-core machine).
func sharded(c *server.Config) { c.SILWorkers = 4 }

// TestShardedDedup2ServerRoundTrip drives two duplicate-heavy backup
// generations through a server running 4 SIL workers and restores both
// byte-identical. The second generation re-sends the first generation's
// content under a new job, so its dedup-2 pass resolves nearly every
// fingerprint through the parallel region scans. The subtest name marks
// the durable storage engine, which every server now runs on.
func TestShardedDedup2ServerRoundTrip(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		d, _, srvAddr := startServer(t, sharded)

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

// TestShardedDedup2DuringBackup overlaps sharded dedup-2 passes with a
// live backup session: the pass snapshots the chunk log while dedup-1
// keeps appending behind it, and chunks of the in-flight session must
// survive to the next pass (their fingerprints are not yet pending).
func TestShardedDedup2DuringBackup(t *testing.T) {
	d, _, srvAddr := startServer(t, sharded)

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
