package debar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"debar/internal/client"
	"debar/internal/director"
	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/proto"
	"debar/internal/server"
	"debar/internal/store"
)

// bootDurable starts a durable director (journaled metastore) and one
// durable backup server (store engine) over the given data directories.
// eng may be nil; when non-nil the server is wired onto it directly.
func bootDurable(t *testing.T, dirData, srvData string, eng *store.Engine) (*director.Director, *metastore.Store, *server.Server, string) {
	t.Helper()
	return bootDurableWith(t, dirData, srvData, eng, nil)
}

// bootDurableWith is bootDurable with a server-config hook, for tests
// that need fault-injection knobs (stage hooks, short timeouts).
func bootDurableWith(t *testing.T, dirData, srvData string, eng *store.Engine, mod func(*server.Config)) (*director.Director, *metastore.Store, *server.Server, string) {
	t.Helper()
	ms, err := metastore.Open(filepath.Join(dirData, "meta.journal"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := director.NewDurable(ms)
	if err != nil {
		t.Fatal(err)
	}
	daddr, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{DirectorAddr: daddr, IndexBits: 10}
	if eng != nil {
		cfg.Storage = eng
	} else {
		cfg.DataDir = srvData
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saddr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, ms, srv, saddr
}

func shutdownDurable(t *testing.T, d *director.Director, ms *metastore.Store, srv *server.Server) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("director close: %v", err)
	}
	if err := ms.Close(); err != nil {
		t.Fatalf("metastore close: %v", err)
	}
}

func checkRestore(t *testing.T, saddr, job, srcDir string) {
	t.Helper()
	checkRestoreWith(t, saddr, job, srcDir, 0, 0)
}

// checkRestoreWith restores job and byte-compares it against srcDir,
// with explicit restore flow-control knobs (0 selects the defaults).
func checkRestoreWith(t *testing.T, saddr, job, srcDir string, batch, window int) {
	t.Helper()
	dest := t.TempDir()
	c := client.New(saddr, "e2e-restore")
	c.Options.RestoreBatchSize = batch
	c.Options.RestoreWindow = window
	n, err := c.Restore(job, dest)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("restored %d files, want %d", n, len(entries))
	}
	for _, ent := range entries {
		want, err := os.ReadFile(filepath.Join(srcDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dest, ent.Name()))
		if err != nil {
			t.Fatalf("restored file missing: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s not byte-identical after restore", ent.Name())
		}
	}
}

// TestDurabilityEndToEnd is the acceptance scenario: a client backs up
// files, both daemons are shut down and restarted over the same data
// directories, and a restore returns byte-identical content. A third
// restart with the index file deleted must rebuild it from container
// metadata and still restore correctly.
func TestDurabilityEndToEnd(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	src := t.TempDir()

	// ~2.5 MB of deterministic noise (many chunks, several containers at
	// small scale) plus a duplicated file so dedup has work.
	rng := newDetRand(42)
	big := make([]byte, 2500*1024)
	for i := 0; i < len(big); i += 8 {
		binary.LittleEndian.PutUint64(big[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "big.bin"), big, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "copy.bin"), big[:1024*1024], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "note.txt"), []byte("durable backup\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	const job = "durability-job"
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, nil)
	c := client.New(saddr, "e2e")
	if _, err := c.Backup(job, src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	// Dedup-2 moves the logged chunks into containers and registers the
	// fingerprints; the server checkpoints its engine afterwards.
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	checkRestore(t, saddr, job, src)
	shutdownDurable(t, d, ms, srv)

	// Restart both daemons from the same data directories.
	d, ms, srv, saddr = bootDurable(t, dirData, srvData, nil)
	checkRestore(t, saddr, job, src)
	shutdownDurable(t, d, ms, srv)

	// Delete the index file: the engine must rebuild it from container
	// metadata (§4.1 recovery) and restores must still verify.
	if err := os.Remove(filepath.Join(srvData, "index.db")); err != nil {
		t.Fatal(err)
	}
	eng, err := store.Open(srvData, store.Options{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.IndexRebuilt() {
		t.Fatal("deleted index file did not trigger a rebuild")
	}
	d, ms, srv, saddr = bootDurable(t, dirData, srvData, eng)
	checkRestore(t, saddr, job, src)
	shutdownDurable(t, d, ms, srv)
}

// TestDurabilityCrashBeforeDedup2 covers the WAL half of recovery: the
// daemons go down after backup but before dedup-2 ran, so the chunks live
// only in the chunk-log WAL. After restart the recovered WAL re-seeds the
// undetermined fingerprints, dedup-2 stores them, and the restore
// verifies.
func TestDurabilityCrashBeforeDedup2(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	src := t.TempDir()
	rng := newDetRand(7)
	buf := make([]byte, 600*1024)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "pending.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	const job = "wal-recovery-job"
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, nil)
	c := client.New(saddr, "e2e")
	if _, err := c.Backup(job, src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	// No dedup-2: shut down with every chunk still in the WAL.
	shutdownDurable(t, d, ms, srv)

	d, ms, srv, saddr = bootDurable(t, dirData, srvData, nil)
	defer shutdownDurable(t, d, ms, srv)
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2 after restart: %v", err)
	}
	checkRestore(t, saddr, job, src)
}

// copyTree snapshots a directory tree byte-for-byte.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityStreamingRestoreAfterKill simulates a SIGKILL of both
// daemons: the live data directories are snapshotted byte-for-byte while
// the deployment is still running — exactly the on-disk (page-cache
// included) state a killed process leaves, with no Close, no engine
// checkpoint and no WAL retirement — and a fresh deployment boots from
// the snapshot. Recovery must trust the checkpointed index for the
// already-stored job, replay the WAL for the pending one, and the
// chunk-streamed restore path (forced to many small windowed batches)
// must return every file of both jobs byte-identical.
func TestDurabilityStreamingRestoreAfterKill(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	src1, src2 := t.TempDir(), t.TempDir()
	rng := newDetRand(23)
	stored := make([]byte, 2*1024*1024)
	for i := 0; i < len(stored); i += 8 {
		binary.LittleEndian.PutUint64(stored[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src1, "stored.bin"), stored, 0o644); err != nil {
		t.Fatal(err)
	}
	pending := make([]byte, 6*1024*1024)
	for i := 0; i < len(pending); i += 8 {
		binary.LittleEndian.PutUint64(pending[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src2, "pending.bin"), pending, 0o644); err != nil {
		t.Fatal(err)
	}

	const jobStored, jobPending = "kill-stored-job", "kill-pending-job"
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, nil)
	c := client.New(saddr, "e2e-kill")
	if _, err := c.Backup(jobStored, src1); err != nil {
		t.Fatalf("backup 1: %v", err)
	}
	// Job 1 reaches containers + a checkpointed index before the kill.
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	// Job 2's chunks are only in the chunk-log WAL at the kill point.
	if _, err := c.Backup(jobPending, src2); err != nil {
		t.Fatalf("backup 2: %v", err)
	}

	// The kill: snapshot the live state, then (only to release this
	// process's file locks and mappings) tear down the originals — the
	// snapshot never sees the graceful shutdown.
	killDir, killSrv := t.TempDir(), t.TempDir()
	copyTree(t, dirData, killDir)
	copyTree(t, srvData, killSrv)
	shutdownDurable(t, d, ms, srv)

	d, ms, srv, saddr = bootDurable(t, killDir, killSrv, nil)
	defer shutdownDurable(t, d, ms, srv)
	// The WAL-recovered fingerprints re-enter dedup-2.
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2 after kill: %v", err)
	}
	// Many small batches under a tight window: the post-recovery restore
	// exercises the full streaming exchange, not a single-frame special
	// case.
	checkRestoreWith(t, saddr, jobStored, src1, 32, 2)
	checkRestoreWith(t, saddr, jobPending, src2, 32, 2)
}

// TestDurabilityCrashBetweenSILAndSIU kills the deployment in the middle
// of a dedup-2 pass: SIL and chunk storing have appended the containers
// but the SIU index writes, the engine checkpoint and the WAL retirement
// never happen. The on-disk state is snapshotted byte-for-byte from
// inside the "sil-stored" stage hook — exactly what a SIGKILL at that
// instant leaves. A fresh deployment booting from the snapshot must
// re-queue the WAL-recovered fingerprints, converge on a retried pass
// (storing nothing it already has twice over a further pass), and restore
// byte-identical content.
func TestDurabilityCrashBetweenSILAndSIU(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	src := t.TempDir()
	rng := newDetRand(61)
	buf := make([]byte, 1500*1024)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "midpass.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	const job = "midpass-job"
	killDir, killSrv := t.TempDir(), t.TempDir()
	snapped := false
	d, ms, srv, saddr := bootDurableWith(t, dirData, srvData, nil, func(cfg *server.Config) {
		cfg.Dedup2StageHook = func(stage string) {
			if stage != "sil-stored" || snapped {
				return
			}
			// The "kill": capture the live on-disk state mid-pass, before
			// SIU, checkpoint or WAL retirement run.
			snapped = true
			copyTree(t, dirData, killDir)
			copyTree(t, srvData, killSrv)
		}
	})
	c := client.New(saddr, "e2e-midpass")
	if _, err := c.Backup(job, src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	if !snapped {
		t.Fatal("sil-stored stage hook never fired")
	}
	shutdownDurable(t, d, ms, srv)

	// Boot from the mid-pass snapshot. The chunk-log WAL still holds every
	// chunk (retirement never ran), so recovery re-queues the fingerprints
	// and the retried pass finishes the interrupted work.
	d, ms, srv, saddr = bootDurableWith(t, killDir, killSrv, nil, nil)
	defer shutdownDurable(t, d, ms, srv)
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("retried dedup-2 after mid-pass kill: %v", err)
	}
	checkRestoreWith(t, saddr, job, src, 32, 2)

	// Convergence: with the retried pass complete, yet another pass must
	// find nothing new — the replayed work was finished, not duplicated
	// into an ever-growing chunk log.
	if done := dedup2Pass(t, saddr); done.NewChunks != 0 {
		t.Fatalf("convergence pass stored %d new chunks, want 0", done.NewChunks)
	}
}

// dedup2Pass runs one dedup-2 pass with SIU on the server at saddr and
// returns its result, failing the test if the pass reports an error.
func dedup2Pass(t *testing.T, saddr string) proto.Dedup2Done {
	t.Helper()
	conn, err := proto.Dial(saddr)
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
	done, ok := msg.(proto.Dedup2Done)
	if !ok || done.Err != "" {
		t.Fatalf("Dedup2Request reply = %T %+v", msg, msg)
	}
	return done
}

// TestDurabilityKillAfterLiveConsume pins "a consumed chunk is durable"
// on the path that retires WAL segments while a backup session is live:
// session A holds logged chunks, a dedup-2 pass consumes them and
// retires their WAL segment, and the deployment is killed (data dirs
// snapshotted) with A still open. Booting from the snapshot, every consumed
// fingerprint must resolve through the disk index, and a further pass
// must store nothing.
func TestDurabilityKillAfterLiveConsume(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, nil)

	rng := newDetRand(73)
	var fps []fp.FP
	var sizes []uint32
	var data [][]byte
	for range 12 {
		chunk := make([]byte, 4096)
		for i := 0; i < len(chunk); i += 8 {
			binary.LittleEndian.PutUint64(chunk[i:], rng.next())
		}
		fps = append(fps, fp.New(chunk))
		sizes = append(sizes, uint32(len(chunk)))
		data = append(data, chunk)
	}

	conn, err := proto.Dial(saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	call := func(req any) any {
		t.Helper()
		if err := conn.Send(req); err != nil {
			t.Fatal(err)
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	start, ok := call(proto.BackupStart{JobName: "live-consume-job", Client: "a", Version: proto.ProtocolVersion}).(proto.BackupStartOK)
	if !ok {
		t.Fatal("BackupStart refused")
	}
	if v, ok := call(proto.FPBatch{SessionID: start.SessionID, FPs: fps, Sizes: sizes}).(proto.FPVerdicts); !ok || len(v.Verdicts) != len(fps) {
		t.Fatal("FPBatch refused")
	}
	// An accepted ChunkBatch gets no reply: the re-offer, answered after
	// it, must find every chunk logged.
	if err := conn.Send(proto.ChunkBatch{SessionID: start.SessionID, FPs: fps, Data: data}); err != nil {
		t.Fatal(err)
	}
	if v, ok := call(proto.FPBatch{SessionID: start.SessionID, Seq: 1, FPs: fps, Sizes: sizes}).(proto.FPVerdicts); !ok || len(v.Verdicts) != len(fps) {
		t.Fatal("re-offer refused")
	} else {
		for i := range fps {
			if v.NeedsTransfer(i) {
				t.Fatalf("chunk %d not logged after its ChunkBatch", i)
			}
		}
	}

	// The pass consumes A's records and, caught up, retires their WAL
	// segment for reuse: the WAL holds no more bytes than before.
	before := walBytes(t, srvData)
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	if after := walBytes(t, srvData); after > before {
		t.Fatalf("WAL holds %d bytes after the pass, want at most the %d it retired", after, before)
	}

	// The kill, with A still open.
	killDir, killSrv := t.TempDir(), t.TempDir()
	copyTree(t, dirData, killDir)
	copyTree(t, srvData, killSrv)
	conn.Close()
	shutdownDurable(t, d, ms, srv)

	eng, err := store.Open(killSrv, store.Options{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ms, srv, saddr = bootDurable(t, killDir, killSrv, eng)
	defer shutdownDurable(t, d, ms, srv)
	if n := eng.ChunkLog().Count(); n != 0 {
		t.Fatalf("reboot replayed %d consumed WAL records, want 0", n)
	}
	for i, f := range fps {
		if _, err := eng.Index().Lookup(f); err != nil {
			t.Fatalf("consumed chunk %d lost after the kill: %v", i, err)
		}
	}
	if done := dedup2Pass(t, saddr); done.NewChunks != 0 {
		t.Fatalf("pass after reboot stored %d new chunks, want 0", done.NewChunks)
	}
}

// walBytes returns the bytes on disk of the chunk-log WAL under a
// server's data directory: its segments and the spares kept for reuse.
func walBytes(t *testing.T, srvData string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(srvData, "wal", "wal-*.log"))
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

// TestDurabilityCrashMidGroupCommit drives the group-commit durability
// contract end to end: several clients back up concurrently, so their
// chunk batches share the WAL flusher's coalesced fsyncs and no batch
// waits for its own, but every BackupDone was held until an fsync
// covered the whole run. The deployment is then "killed" — live data
// directories snapshotted byte-for-byte with no dedup-2, no checkpoint
// and no WAL retirement — at the worst point the coalesced write path
// allows: every run complete, nothing yet moved out of the WAL. A
// deployment booting from the snapshot must recover every chunk of the
// completed runs and restore each job byte-identical.
func TestDurabilityCrashMidGroupCommit(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	const jobs = 3
	rng := newDetRand(97)
	srcs := make([]string, jobs)
	for j := range srcs {
		srcs[j] = t.TempDir()
		buf := make([]byte, (800+200*j)*1024)
		for i := 0; i < len(buf); i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], rng.next())
		}
		if err := os.WriteFile(filepath.Join(srcs[j], "data.bin"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, ms, srv, saddr := bootDurable(t, dirData, srvData, nil)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			c := client.New(saddr, fmt.Sprintf("gc-client-%d", j))
			_, errs[j] = c.Backup(fmt.Sprintf("gc-job-%d", j), srcs[j])
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("concurrent backup %d: %v", j, err)
		}
	}

	// The kill: snapshot the live state with every run's chunks still only
	// in the chunk-log WAL, then tear down the originals (only to release
	// this process's locks — the snapshot never sees the shutdown).
	killDir, killSrv := t.TempDir(), t.TempDir()
	copyTree(t, dirData, killDir)
	copyTree(t, srvData, killSrv)
	shutdownDurable(t, d, ms, srv)

	d, ms, srv, saddr = bootDurable(t, killDir, killSrv, nil)
	defer shutdownDurable(t, d, ms, srv)
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2 after mid-group-commit kill: %v", err)
	}
	for j := 0; j < jobs; j++ {
		checkRestoreWith(t, saddr, fmt.Sprintf("gc-job-%d", j), srcs[j], 32, 2)
	}
}

// TestStartLocalDurableRestart covers the StartLocal contract: with
// DataDir set, the whole deployment (director metadata included) is
// recovered by a second StartLocal over the same directory.
func TestStartLocalDurableRestart(t *testing.T) {
	data := t.TempDir()
	src := t.TempDir()
	rng := newDetRand(11)
	buf := make([]byte, 800*1024)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "data.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	const job = "startlocal-job"
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10, DataDir: data})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(sys.ServerAddrs[0], "e2e")
	if _, err := c.Backup(job, src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	sys.Close()

	sys2, err := StartLocal(1, ServerConfig{IndexBits: 10, DataDir: data})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	checkRestore(t, sys2.ServerAddrs[0], job, src)
}

// TestRestoreBeforeDedup2: a backup the deployment acknowledged restores
// byte-identically before any dedup-2 pass has run — its chunks are read
// from the chunk-log WAL — and again after a restart recovers that WAL,
// and again once a pass has moved the chunks into containers.
func TestRestoreBeforeDedup2(t *testing.T) {
	data := t.TempDir()
	src := t.TempDir()
	rng := newDetRand(29)
	buf := make([]byte, 600*1024)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "data.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	const job = "no-pass-job"
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10, DataDir: data})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(sys.ServerAddrs[0], "e2e").Backup(job, src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	checkRestore(t, sys.ServerAddrs[0], job, src)
	sys.Close()

	sys2, err := StartLocal(1, ServerConfig{IndexBits: 10, DataDir: data})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	checkRestore(t, sys2.ServerAddrs[0], job, src)
	if err := sys2.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	checkRestore(t, sys2.ServerAddrs[0], job, src)
}
