package server_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"debar/internal/chunker"
	"debar/internal/client"
	"debar/internal/container"
	"debar/internal/director"
	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/seglog"
	"debar/internal/server"
	"debar/internal/store"
)

// startServer boots a director (over a journal in a test temp dir) and
// one backup server on loopback TCP and closes both when the test ends. mod, when non-nil, adjusts the server
// config; unless it sets Storage, the server opens its engine in a fresh
// test temp dir.
func startServer(t *testing.T, mod func(*server.Config)) (*director.Director, *server.Server, string) {
	t.Helper()
	ms, err := metastore.Open(filepath.Join(t.TempDir(), "meta.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	d, err := director.NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	dirAddr, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	cfg := server.Config{
		DirectorAddr:  dirAddr,
		ContainerSize: 64 << 10,
		IndexBits:     12,
	}
	if mod != nil {
		mod(&cfg)
	}
	if cfg.Storage == nil {
		cfg.DataDir = t.TempDir()
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srvAddr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, srv, srvAddr
}

// TestNewNeedsStorage pins the one-storage-design contract: a server
// needs exactly one of an engine or a data directory, and a director to
// record its runs in.
func TestNewNeedsStorage(t *testing.T) {
	if srv, err := server.New(server.Config{DirectorAddr: "127.0.0.1:1"}); err == nil {
		srv.Close()
		t.Fatal("server.New with neither Storage nor DataDir succeeded")
	}
	if srv, err := server.New(server.Config{DataDir: t.TempDir()}); err == nil {
		srv.Close()
		t.Fatal("server.New without a DirectorAddr succeeded")
	}
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if srv, err := server.New(server.Config{Storage: eng, DataDir: t.TempDir(), DirectorAddr: "127.0.0.1:1"}); err == nil {
		srv.Close()
		t.Fatal("server.New with both Storage and DataDir succeeded")
	}
}

// writeTree builds a deterministic file tree with duplicate content.
func writeTree(t *testing.T, dir string, seed int64) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	files := map[string][]byte{}
	shared := make([]byte, 200<<10) // duplicated across files
	rng.Read(shared)
	for i := 0; i < 5; i++ {
		unique := make([]byte, 50<<10+i*1000)
		rng.Read(unique)
		data := append(append([]byte{}, shared...), unique...)
		rel := filepath.Join("sub", "file"+string(rune('a'+i))+".bin")
		files[rel] = data
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func testClient(srvAddr string) *client.Client {
	c := client.New(srvAddr, "it-client")
	c.Options.Chunking = chunker.Config{AvgBits: 10, Min: 512, Max: 8192}
	return c
}

func TestBackupDedup2RestoreRoundTrip(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	files := writeTree(t, src, 1)

	c := testClient(srvAddr)
	stats, err := c.Backup("job-it", src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 5 {
		t.Fatalf("backed up %d files", stats.Files)
	}
	if stats.LogicalBytes == 0 {
		t.Fatal("no logical bytes")
	}
	// The shared prefix dedupes inside the stream: the preliminary
	// filter must have cut the transfer well below logical.
	if stats.TransferredBytes >= stats.LogicalBytes {
		t.Fatalf("no dedup-1 savings: %d transferred of %d logical",
			stats.TransferredBytes, stats.LogicalBytes)
	}

	// Director-initiated dedup-2 (SIL + chunk storing + SIU).
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	dst := t.TempDir()
	n, err := c.Restore("job-it", dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("restored %d files", n)
	}
	for rel, want := range files {
		got, err := os.ReadFile(filepath.Join(dst, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored %s differs (%d vs %d bytes)", rel, len(got), len(want))
		}
	}
}

func TestSecondRunJobChainDedup(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	writeTree(t, src, 2)
	c := testClient(srvAddr)

	first, err := c.Backup("job-chain", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	// Second, identical run: the job-chain filtering fingerprints from
	// the director prime the filter, so (almost) nothing transfers.
	second, err := c.Backup("job-chain", src)
	if err != nil {
		t.Fatal(err)
	}
	if second.TransferredBytes > first.TransferredBytes/10 {
		t.Fatalf("second run transferred %d, first %d: job chain not filtering",
			second.TransferredBytes, first.TransferredBytes)
	}
	if second.NewFingerprints != 0 {
		t.Fatalf("second run produced %d new fingerprints", second.NewFingerprints)
	}
}

func TestModifiedFileIncrementalBackup(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	files := writeTree(t, src, 3)
	c := testClient(srvAddr)

	if _, err := c.Backup("job-mod", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	// Append a little data to one file: only the tail chunks transfer.
	mod := filepath.Join(src, "sub", "filea.bin")
	orig, _ := os.ReadFile(mod)
	if err := os.WriteFile(mod, append(orig, []byte("tail change")...), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Backup("job-mod", src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TransferredBytes > int64(64<<10) {
		t.Fatalf("incremental run transferred %d bytes for a tiny append", stats.TransferredBytes)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	dst := t.TempDir()
	if _, err := c.Restore("job-mod", dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dst, "sub", "filea.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, files[filepath.Join("sub", "filea.bin")]...), []byte("tail change")...)
	if !bytes.Equal(got, want) {
		t.Fatal("modified file restored incorrectly")
	}
}

func TestRestoreUnknownJobFails(t *testing.T) {
	_, _, srvAddr := startServer(t, nil)
	c := testClient(srvAddr)
	if _, err := c.Restore("no-such-job", t.TempDir()); err == nil {
		t.Fatal("restore of unknown job succeeded")
	}
}

func TestVerifyDetectsModifications(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	writeTree(t, src, 4)
	c := testClient(srvAddr)

	if _, err := c.Backup("job-verify", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	// Pristine tree verifies clean.
	res, err := c.Verify("job-verify", src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Matched != 5 || res.Checked != 5 {
		t.Fatalf("pristine verify = %+v", res)
	}

	// Flip a byte in one file, overwrite the middle of another at the same
	// size, append one byte to a third and delete a fourth: verify must
	// flag exactly those.
	edit := func(name string, change func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(src, "sub", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, change(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	edit("filea.bin", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	edit("filec.bin", func(b []byte) []byte { copy(b[len(b)/2:], "same size, new bytes"); return b })
	edit("filed.bin", func(b []byte) []byte { return append(b, 0) })
	if err := os.Remove(filepath.Join(src, "sub", "fileb.bin")); err != nil {
		t.Fatal(err)
	}
	res, err = c.Verify("job-verify", src)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("verify missed the damage")
	}
	if len(res.Modified) != 3 || len(res.Missing) != 1 {
		t.Fatalf("verify = %+v", res)
	}
	if res.Matched != 1 {
		t.Fatalf("matched = %d, want 1", res.Matched)
	}
}

// TestVerifyIgnoresChunkingChange verifies a run with a client whose
// chunking parameters differ from the ones the backup used: verify cuts
// files at the recorded chunk sizes, so an untouched tree still matches.
func TestVerifyIgnoresChunkingChange(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	writeTree(t, src, 5)
	if _, err := testClient(srvAddr).Backup("job-rechunk", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}

	c := client.New(srvAddr, "it-client")
	c.Options.Chunking = chunker.Config{AvgBits: 12, Min: 1024, Max: 16384}
	res, err := c.Verify("job-rechunk", src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Matched != 5 {
		t.Fatalf("verify under other chunking = %+v, want all 5 matched", res)
	}
}

func TestVerifyUnknownJob(t *testing.T) {
	_, _, srvAddr := startServer(t, nil)
	c := testClient(srvAddr)
	if _, err := c.Verify("ghost-job", t.TempDir()); err == nil {
		t.Fatal("verify of unknown job succeeded")
	}
}

// TestServerCloseStopsFlushers: Close of a server closes its engine and
// returns only once both durable logs' flushers have exited, though each
// is busy in an fsync when Close starts.
func TestServerCloseStopsFlushers(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	slow := seglog.Faults{Sync: func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}}
	eng.ChunkLog().SetFaults(slow)
	eng.SegRepo().SetFaults(slow)
	_, srv, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	src := t.TempDir()
	writeTree(t, src, 5)
	if _, err := testClient(srvAddr).Backup("close-job", src); err != nil {
		t.Fatal(err)
	}

	data := []byte("a chunk appended as the server closes")
	if err := eng.ChunkLog().Append(fp.New(data), uint32(len(data)), data); err != nil {
		t.Fatal(err)
	}
	w := container.NewWriter(64<<10, false)
	w.Add(fp.New(data), uint32(len(data)), data)
	if _, err := eng.Repo().Append(w.Seal(0)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(buf, []byte("debar/internal/seglog.(*Log).flush(")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a log's flusher outlived Server.Close")
		}
	}
}
