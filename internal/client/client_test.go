package client_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"debar/internal/chunker"
	"debar/internal/client"
	"debar/internal/director"
	"debar/internal/metastore"
	"debar/internal/server"
)

// startDirector boots a director over a fresh journal in a test temp
// directory on loopback TCP; both close when the test ends.
func startDirector(t *testing.T) (*director.Director, string) {
	t.Helper()
	ms, err := metastore.Open(filepath.Join(t.TempDir(), "meta.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	d, err := director.NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, addr
}

func startSystem(t *testing.T) (*director.Director, string) {
	t.Helper()
	d, dirAddr := startDirector(t)
	srv, err := server.New(server.Config{
		DirectorAddr:  dirAddr,
		ContainerSize: 64 << 10,
		IndexBits:     12,
		DataDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return d, addr
}

func newTestClient(addr string) *client.Client {
	c := client.New(addr, "pipe-client")
	c.Options.Chunking = chunker.Config{AvgBits: 10, Min: 512, Max: 8192}
	return c
}

// TestPipelineEdgeCases backs up a tree built to stress the pipeline:
// empty files, sub-minimum-chunk files, a file spanning many batches, and
// enough small files to wrap the window several times — then round-trips
// it through dedup-2 and restore.
func TestPipelineEdgeCases(t *testing.T) {
	d, addr := startSystem(t)
	src := t.TempDir()
	rng := rand.New(rand.NewSource(77))

	files := map[string][]byte{
		"empty.bin": {},
		"tiny.bin":  []byte("x"),
		"small.bin": []byte("just a few bytes, below the min chunk size"),
	}
	big := make([]byte, 1<<20) // hundreds of chunks: many FPBatches
	rng.Read(big)
	files["big.bin"] = big
	for i := 0; i < 40; i++ { // many files: FileMeta churn through the window
		b := make([]byte, 600+rng.Intn(2000))
		rng.Read(b)
		files[fmt.Sprintf("many/f%02d.bin", i)] = b
	}
	for rel, data := range files {
		full := filepath.Join(src, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := newTestClient(addr)
	c.Options.BatchSize = 16 // small batches: force several in flight
	stats, err := c.Backup("edge-job", src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != len(files) {
		t.Fatalf("backed up %d files, want %d", stats.Files, len(files))
	}

	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	n, err := c.Restore("edge-job", dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(files) {
		t.Fatalf("restored %d files, want %d", n, len(files))
	}
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(dst, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: restored %d bytes, want %d", rel, len(got), len(want))
		}
	}
}

// TestPipelineKnobExtremes runs the same dataset through degenerate knob
// settings; every configuration must produce an identical restore.
func TestPipelineKnobExtremes(t *testing.T) {
	src := t.TempDir()
	rng := rand.New(rand.NewSource(88))
	want := make([]byte, 300<<10)
	rng.Read(want)
	if err := os.WriteFile(filepath.Join(src, "data.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ window, workers, batch int }{
		{1, 1, 1},   // fully serial, one fingerprint per batch
		{1, 4, 8},   // stop-and-wait window, parallel hashing
		{16, 2, 32}, // deep window
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("w%d_k%d_b%d", tc.window, tc.workers, tc.batch), func(t *testing.T) {
			d, addr := startSystem(t)
			c := newTestClient(addr)
			c.Options.Window, c.Options.Workers, c.Options.BatchSize = tc.window, tc.workers, tc.batch
			job := fmt.Sprintf("knob-job-%d", i)
			stats, err := c.Backup(job, src)
			if err != nil {
				t.Fatal(err)
			}
			if stats.LogicalBytes != int64(len(want)) {
				t.Fatalf("logical bytes %d, want %d", stats.LogicalBytes, len(want))
			}
			if err := d.TriggerDedup2(); err != nil {
				t.Fatal(err)
			}
			dst := t.TempDir()
			if _, err := c.Restore(job, dst); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dst, "data.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("restore differs from source")
			}
		})
	}
}

// TestBackupErrorPropagates ensures a mid-stream failure (server torn
// down while batches are in flight) surfaces as an error instead of
// wedging the pipeline, and that a dial failure errors too.
func TestBackupErrorPropagates(t *testing.T) {
	_, dirAddr := startDirector(t)
	srv, err := server.New(server.Config{
		DirectorAddr:  dirAddr,
		ContainerSize: 64 << 10,
		IndexBits:     12,
		DataDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	srcDir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	big := make([]byte, 16<<20) // enough batches that Close lands mid-stream
	rng.Read(big)
	if err := os.WriteFile(filepath.Join(srcDir, "big.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}

	c := newTestClient(addr)
	c.Options.BatchSize = 8 // many round-trips: widen the mid-stream window
	done := make(chan error, 1)
	go func() {
		_, err := c.Backup("dead-job", srcDir)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the pipeline get in flight
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("backup survived the server being torn down mid-stream")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline wedged after mid-stream server shutdown")
	}

	// Dial failure errors out too.
	c.ServerAddr = "127.0.0.1:1"
	if _, err := c.Backup("dead-job-2", srcDir); err == nil {
		t.Fatal("backup to dead server succeeded")
	}
}

// TestBackupRejectsBadChunking checks an invalid Options.Chunking fails
// validation up front, naming the field, instead of surfacing as a dial
// error or deep inside the pipeline.
func TestBackupRejectsBadChunking(t *testing.T) {
	c := client.New("127.0.0.1:1", "bad-chunking") // nobody listens
	c.Options.Chunking = chunker.Config{Min: 8}
	_, err := c.Backup("job", t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "Options.Chunking") {
		t.Fatalf("Backup with Chunking{Min: 8} = %v, want an Options.Chunking error", err)
	}
	if _, err := client.NewWithOptions("127.0.0.1:1", "bad-chunking", c.Options); err == nil {
		t.Fatal("NewWithOptions accepted Chunking{Min: 8}")
	}
}

// TestBackupMissingDir verifies walk errors are reported.
func TestBackupMissingDir(t *testing.T) {
	_, addr := startSystem(t)
	c := newTestClient(addr)
	if _, err := c.Backup("no-dir-job", filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("backup of missing dir succeeded")
	}
}
