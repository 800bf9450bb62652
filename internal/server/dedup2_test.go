package server_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
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
// while dedup-1 keeps appending behind it, and chunks of the in-flight
// sessions must survive to the next pass (their fingerprints are not yet
// pending).
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
