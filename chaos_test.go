package debar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"debar/internal/client"
	"debar/internal/faultproxy"
	"debar/internal/proto"
	"debar/internal/store"
)

// The chaos suite drives full backup→fault→retry→restore cycles through
// the faultproxy, asserting the end-to-end fault-tolerance contract: a
// cut or stalled link never wedges an operation, retries converge with
// resume (not blind re-runs), and the restored bytes are identical to
// the source. CI runs this suite under -race.

// chaosSrc writes a deterministic multi-megabyte source tree.
func chaosSrc(t *testing.T, seed uint64, size int) (string, []byte) {
	t.Helper()
	src := t.TempDir()
	rng := newDetRand(seed)
	buf := make([]byte, size)
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src, "data.bin"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return src, buf
}

// chaosClient returns a client aimed at addr with fast chaos-test retry
// pacing (the defaults back off for humans, not unit tests).
func chaosClient(addr string) *Client {
	c := client.New(addr, "chaos")
	c.Options.RetryBackoff = 50 * time.Millisecond
	return c
}

// TestChaosBackupRetriesThroughCut cuts the first backup connection after
// 256 KiB uploaded; the client's automatic retry must reconnect, resume
// via the fingerprint re-offer (the server answers "don't transfer" for
// every chunk already in its chunk log), and complete — after which
// dedup-2 and a byte-identical restore prove no chunk was lost or
// duplicated into the file index.
func TestChaosBackupRetriesThroughCut(t *testing.T) {
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, _ := chaosSrc(t, 101, 2*1024*1024)

	px, err := faultproxy.New(sys.ServerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(faultproxy.Plan{CutC2S: 512 << 10, FailConns: 1})

	c := chaosClient(px.Addr())
	// Small batches (~160 KiB frames at the ~10 KiB average chunk size) so
	// several complete ChunkBatch frames land before the cut; the default
	// 256-chunk batch would put the whole 2 MiB in one frame the cut
	// always truncates, leaving nothing to resume from.
	c.Options.BatchSize = 16
	stats, err := c.Backup("cut-backup-job", src)
	if err != nil {
		t.Fatalf("backup through cut link: %v", err)
	}
	if n := px.Accepted(); n < 2 {
		t.Fatalf("proxy accepted %d connections, want ≥2 (a retry)", n)
	}
	// The retry is a resume, not a re-run: chunks that landed before the
	// cut are records in the chunk log, and the log's logged set
	// answers their re-offer with "don't transfer", so the successful
	// attempt moved less than the logical data. (A chunk is in the
	// logged set from its append until a dedup-2 pass stores it, whether
	// or not the server has noticed the cut yet.)
	if stats.TransferredBytes >= stats.LogicalBytes {
		t.Fatalf("retried backup transferred %d of %d logical bytes — resume priming did not kick in",
			stats.TransferredBytes, stats.LogicalBytes)
	}

	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	checkRestore(t, sys.ServerAddrs[0], "cut-backup-job", src)
}

// TestChaosRestoreResumesThroughCut cuts the first restore connection
// after 256 KiB downloaded; the retry must resume the interrupted file
// mid-stream (StartChunk > 0 on the wire) and deliver byte-identical
// content.
func TestChaosRestoreResumesThroughCut(t *testing.T) {
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, want := chaosSrc(t, 103, 2*1024*1024)

	c := chaosClient(sys.ServerAddrs[0])
	if _, err := c.Backup("cut-restore-job", src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}

	px, err := faultproxy.New(sys.ServerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(faultproxy.Plan{CutS2C: 256 << 10, FailConns: 1})

	rc := chaosClient(px.Addr())
	rc.Options.RestoreBatchSize = 32 // many batches: the cut lands mid-stream
	dest := t.TempDir()
	n, err := rc.Restore("cut-restore-job", dest)
	if err != nil {
		t.Fatalf("restore through cut link: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d files, want 1", n)
	}
	if px.Accepted() < 2 {
		t.Fatalf("proxy accepted %d connections, want ≥2 (a retry)", px.Accepted())
	}
	got, err := os.ReadFile(filepath.Join(dest, "data.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed restore is not byte-identical")
	}
	ents, err := os.ReadDir(dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("restore left temp files behind: %v", ents)
	}
}

// TestChaosStalledLinkTimesOutAndRetries freezes the first restore
// connection half-open after 128 KiB — no FIN, no bytes, the link just
// goes silent. The client's per-I/O deadline must detect the stall,
// classify it transient, and the retry (over a clean connection) must
// finish the restore. Without bounded I/O this test hangs forever.
func TestChaosStalledLinkTimesOutAndRetries(t *testing.T) {
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, want := chaosSrc(t, 107, 1024*1024)

	c := chaosClient(sys.ServerAddrs[0])
	if _, err := c.Backup("stall-job", src); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}

	px, err := faultproxy.New(sys.ServerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(faultproxy.Plan{StallS2C: 128 << 10, FailConns: 1})

	rc := chaosClient(px.Addr())
	rc.Options.RestoreBatchSize = 32
	rc.Options.IOTimeout = 500 * time.Millisecond // detect the stall fast
	dest := t.TempDir()
	start := time.Now()
	if _, err := rc.Restore("stall-job", dest); err != nil {
		t.Fatalf("restore through stalled link: %v", err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Fatalf("restore took %v — the stall was not detected by the I/O deadline", took)
	}
	got, err := os.ReadFile(filepath.Join(dest, "data.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restore after stall is not byte-identical")
	}
}

// TestChaosWriteFaultFlipsReadOnly injects ENOSPC into the durable
// store's write path mid-backup: the store must flip read-only, the
// client must receive the typed in-band refusal (proto.IsReadOnly, no
// retry storm), already-backed-up data must keep restoring, and a
// restart with the fault cleared must recover with no corruption.
func TestChaosWriteFaultFlipsReadOnly(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	srcOK, _ := chaosSrc(t, 109, 1024*1024)
	srcFail, _ := chaosSrc(t, 113, 1024*1024)

	eng, err := store.Open(srvData, store.Options{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, eng)

	c := chaosClient(saddr)
	if _, err := c.Backup("healthy-job", srcOK); err != nil {
		t.Fatalf("backup before fault: %v", err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}

	// The disk fills: every further WAL/container append fails.
	eng.InjectWriteFault(func() error { return syscall.ENOSPC })
	_, err = c.Backup("doomed-job", srcFail)
	if err == nil {
		t.Fatal("backup against a full disk reported success")
	}
	if !proto.IsReadOnly(err) {
		t.Fatalf("backup error = %v, want a typed read-only refusal", err)
	}
	// Permanent refusals must not burn the retry budget: the very next
	// backup attempt is refused up front by the session gate.
	if _, err := c.Backup("doomed-too", srcFail); err == nil || !proto.IsReadOnly(err) {
		t.Fatalf("second backup on read-only store: %v, want typed refusal", err)
	}
	if eng.ReadOnlyErr() == nil {
		t.Fatal("store did not flip read-only after the write fault")
	}
	// Degraded, not down: the stored job keeps restoring.
	checkRestore(t, saddr, "healthy-job", srcOK)
	shutdownDurable(t, d, ms, srv)

	// Operator intervention: restart over the same directory with the
	// fault gone. The store must come back writable and uncorrupted.
	eng2, err := store.Open(srvData, store.Options{IndexBits: 10})
	if err != nil {
		t.Fatalf("reopening the store after the fault: %v", err)
	}
	if eng2.ReadOnlyErr() != nil {
		t.Fatal("read-only state leaked across a restart")
	}
	d, ms, srv, saddr = bootDurable(t, dirData, srvData, eng2)
	defer shutdownDurable(t, d, ms, srv)
	c2 := chaosClient(saddr)
	if _, err := c2.Backup("doomed-job", srcFail); err != nil {
		t.Fatalf("backup after recovery: %v", err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatalf("dedup-2 after recovery: %v", err)
	}
	checkRestore(t, saddr, "healthy-job", srcOK)
	checkRestore(t, saddr, "doomed-job", srcFail)
}

// TestChaosSlowLinkStillCompletes shapes the backup link to a harsh
// latency/bandwidth budget and checks the progress-based I/O deadlines
// do NOT fire: slow-but-moving traffic must never be mistaken for a
// stall, even with a timeout far below the total transfer time.
func TestChaosSlowLinkStillCompletes(t *testing.T) {
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src, _ := chaosSrc(t, 127, 512*1024)

	px, err := faultproxy.New(sys.ServerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	// ~256 KiB/s with jitter: the 512 KiB backup needs ≥2s end to end,
	// far beyond the 1s per-I/O timeout below.
	px.SetPlan(faultproxy.Plan{
		Latency:      2 * time.Millisecond,
		Jitter:       3 * time.Millisecond,
		BandwidthBPS: 256 << 10,
	})

	c := chaosClient(px.Addr())
	c.Options.IOTimeout = time.Second
	c.Options.Retries = -1 // any spurious timeout must fail loudly, not retry
	// Small batches so a single frame (~80 KiB at the ~10 KiB average
	// chunk size) always traverses the throttled link well inside the
	// per-I/O timeout; bigger batches would starve the reply reader for
	// over a second per frame and trip the deadline spuriously.
	c.Options.BatchSize = 8
	if _, err := c.Backup("slow-job", src); err != nil {
		t.Fatalf("backup over slow link: %v", err)
	}
	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	checkRestore(t, sys.ServerAddrs[0], "slow-job", src)
}

// TestChaosInlineDedupCutResume cuts a backup that is skipping chunks via
// the inline fast path: generation one lands and dedup-2 moves it into
// containers, then generation two — half index-resident duplicates, half
// new data — runs through a link cut mid-exchange. The retry must resume
// and the restore must be byte-identical, proving an inline skip verdict
// never stood in for bytes that hadn't durably landed and the cut lost
// none of the new chunks.
func TestChaosInlineDedupCutResume(t *testing.T) {
	sys, err := StartLocal(1, ServerConfig{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	src1, old := chaosSrc(t, 137, 2*1024*1024)
	c0 := chaosClient(sys.ServerAddrs[0])
	if _, err := c0.Backup("inline-gen1", src1); err != nil {
		t.Fatalf("gen-1 backup: %v", err)
	}
	// Dedup-2 moves gen-1 into committed containers: from here the disk
	// index can answer inline skips for every gen-1 chunk.
	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}

	// Generation two: the gen-1 bytes again (inline-skippable) plus 2 MiB
	// the index has never seen (must transfer, and must survive the cut).
	src2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(src2, "a-dup.bin"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	rng := newDetRand(139)
	fresh := make([]byte, 2*1024*1024)
	for i := 0; i < len(fresh); i += 8 {
		binary.LittleEndian.PutUint64(fresh[i:], rng.next())
	}
	if err := os.WriteFile(filepath.Join(src2, "b-new.bin"), fresh, 0o644); err != nil {
		t.Fatal(err)
	}

	px, err := faultproxy.New(sys.ServerAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(faultproxy.Plan{CutC2S: 512 << 10, FailConns: 1})

	c := chaosClient(px.Addr())
	c.Options.BatchSize = 16 // several frames land before the cut (see above)
	stats, err := c.Backup("inline-gen2", src2)
	if err != nil {
		t.Fatalf("backup through cut link: %v", err)
	}
	if n := px.Accepted(); n < 2 {
		t.Fatalf("proxy accepted %d connections, want ≥2 (a retry)", n)
	}
	if stats.InlineSkippedBytes == 0 {
		t.Fatal("duplicate half produced no inline skips — the cut scenario never exercised the fast path")
	}

	if err := sys.RunDedup2(); err != nil {
		t.Fatalf("dedup-2: %v", err)
	}
	checkRestore(t, sys.ServerAddrs[0], "inline-gen2", src2)
	checkRestore(t, sys.ServerAddrs[0], "inline-gen1", src1)
}

// errInjected is a sentinel for fault hooks asserting wrap fidelity.
var errInjected = errors.New("injected media error")

// TestChaosWriteFaultNonENOSPC checks that an arbitrary injected write
// error (not ENOSPC) also refuses the backup cleanly — the client error
// carries the refusal in-band rather than a dropped connection.
func TestChaosWriteFaultNonENOSPC(t *testing.T) {
	dirData, srvData := t.TempDir(), t.TempDir()
	src, _ := chaosSrc(t, 131, 512*1024)

	eng, err := store.Open(srvData, store.Options{IndexBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	d, ms, srv, saddr := bootDurable(t, dirData, srvData, eng)
	defer shutdownDurable(t, d, ms, srv)

	eng.InjectWriteFault(func() error { return errInjected })
	c := chaosClient(saddr)
	if _, err := c.Backup("media-job", src); err == nil {
		t.Fatal("backup against failing media reported success")
	} else if !proto.IsReadOnly(err) {
		t.Fatalf("backup error = %v, want typed read-only refusal", err)
	}
	_ = d
}
