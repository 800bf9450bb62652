package server_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"debar/internal/chunklog"
	"debar/internal/fp"
	"debar/internal/proto"
	"debar/internal/server"
	"debar/internal/store"
)

// rawSession is a backup session driven frame by frame over one
// connection, so every ChunkBatch lands in the server's reused receive
// buffers for that connection.
type rawSession struct {
	t    *testing.T
	conn *proto.Conn
	id   uint64
	seq  uint64
}

func openRawSession(t *testing.T, srvAddr string) *rawSession {
	t.Helper()
	conn, err := proto.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{t: t, conn: conn}
	start, ok := rs.call(proto.BackupStart{JobName: "raw-job", Client: "raw", Version: proto.ProtocolVersion}).(proto.BackupStartOK)
	if !ok {
		t.Fatal("BackupStart refused")
	}
	rs.id = start.SessionID
	return rs
}

func (rs *rawSession) call(req any) any {
	rs.t.Helper()
	if err := rs.conn.Send(req); err != nil {
		rs.t.Fatal(err)
	}
	msg, err := rs.conn.Recv()
	if err != nil {
		rs.t.Fatal(err)
	}
	return msg
}

// send ships data as one ChunkBatch, which gets no reply when accepted.
func (rs *rawSession) send(data [][]byte) {
	rs.t.Helper()
	fps := make([]fp.FP, len(data))
	for i, d := range data {
		fps[i] = fp.New(d)
	}
	if err := rs.conn.Send(proto.ChunkBatch{SessionID: rs.id, FPs: fps, Data: data}); err != nil {
		rs.t.Fatal(err)
	}
}

// barrier returns once the server has handled every frame sent before
// it: replies come in request order, so an FPBatch's verdicts follow the
// handling of the ChunkBatches before it (or a refusal replaces them).
func (rs *rawSession) barrier() {
	rs.t.Helper()
	f := fp.New([]byte("barrier"))
	rs.seq++
	if _, ok := rs.call(proto.FPBatch{SessionID: rs.id, Seq: rs.seq, FPs: []fp.FP{f}, Sizes: []uint32{7}}).(proto.FPVerdicts); !ok {
		rs.t.Fatal("a ChunkBatch was refused")
	}
}

// fillBatch makes data batch k: n chunks of size bytes, each unique to
// (k, i), in a byte pattern that alternates from batch to batch.
func fillBatch(data [][]byte, k int) {
	for i, d := range data {
		pattern := byte(0xA5)
		if k%2 == 1 {
			pattern = 0x3C
		}
		for j := range d {
			d[j] = pattern ^ byte(j*7+i)
		}
		binary.BigEndian.PutUint32(d, uint32(k))
		binary.BigEndian.PutUint32(d[4:], uint32(i))
	}
}

func newBatch(n, size int) [][]byte {
	data := make([][]byte, n)
	for i := range data {
		data[i] = make([]byte, size+i) // varied sizes: frames differ in length
	}
	return data
}

// TestChunkBatchBufferReuse: the server reads every ChunkBatch of a
// connection into a few receive buffers that it reuses. Batches with
// alternating byte patterns and sizes go through one connection, and
// every record the WAL logged matches its fingerprint, and the log holds
// every chunk sent: no buffer was reused while a batch still used it.
func TestChunkBatchBufferReuse(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	rs := openRawSession(t, srvAddr)

	const batches, n = 48, 32
	sent := make(map[fp.FP]bool)
	for k := range batches {
		data := newBatch(n, 4000+k*100)
		fillBatch(data, k)
		for _, d := range data {
			sent[fp.New(d)] = true
		}
		rs.send(data)
	}
	rs.barrier()

	logged := 0
	err = eng.ChunkLog().Iterate(func(r chunklog.Record) error {
		if fp.New(r.Data) != r.FP {
			t.Errorf("WAL record %d: payload does not match fingerprint %s", logged, r.FP.Short())
		}
		if !sent[r.FP] {
			t.Errorf("WAL record %d holds fingerprint %s, never sent", logged, r.FP.Short())
		}
		logged++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if logged != len(sent) {
		t.Fatalf("WAL holds %d records, want the %d chunks sent", logged, len(sent))
	}
}

// TestChunkBatchReceiveAllocs: in steady state, receiving and logging a
// ChunkBatch allocates a small fraction of its payload — the receive
// buffer and the WAL's frame buffer are reused — where each batch once
// cost a new zeroed payload-sized buffer. The measure covers the whole
// test process, the sending side included.
func TestChunkBatchReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the sender's encode buffers at random under the race detector")
	}
	eng, err := store.Open(t.TempDir(), store.Options{IndexBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srvAddr := startServer(t, func(c *server.Config) { c.Storage = eng })
	rs := openRawSession(t, srvAddr)

	const n, size = 64, 8 << 10
	data := newBatch(n, size)
	payload := 0
	for _, d := range data {
		payload += len(d)
	}
	k := 0
	run := func(batches int) {
		for range batches {
			fillBatch(data, k)
			k++
			rs.send(data)
		}
		rs.barrier()
	}
	run(8) // warm: grow the receive buffers, the frame buffer and the log's index

	// The least of a few windows: a one-off allocation in one of them (a
	// receive buffer's first use, an encode buffer a collection took from
	// the sender's pool) is not the steady state.
	const windows, batches = 4, 16
	perBatch := math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(batches)
		runtime.ReadMemStats(&after)
		perBatch = min(perBatch, float64(after.TotalAlloc-before.TotalAlloc)/batches)
	}
	t.Logf("%.0f bytes allocated per batch of %d payload bytes (%.3f×)", perBatch, payload, perBatch/float64(payload))
	if perBatch > float64(payload)/4 {
		t.Fatalf("receiving and logging a ChunkBatch allocated %.0f bytes, want at most a quarter of its %d payload bytes", perBatch, payload)
	}
}

// TestRestoreBatchBufferReuse: the client reads every RestoreChunkBatch
// of a connection into one reused buffer and writes each verified batch
// with one write. A file of many varied chunks, restored a few chunks per
// batch so consecutive batches differ in content and length, comes back
// byte for byte, from the WAL before a dedup-2 pass and from containers
// after it.
func TestRestoreBatchBufferReuse(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)
	src := t.TempDir()
	want := writeBigFile(t, src, "data.bin", 512<<10, 77)
	c := testClient(srvAddr)
	if _, err := c.Backup("reuse-job", src); err != nil {
		t.Fatal(err)
	}
	restore := func(stage string) {
		t.Helper()
		rc := testClient(srvAddr)
		rc.Options.RestoreBatchSize = 3
		dst := t.TempDir()
		if _, err := rc.Restore("reuse-job", dst); err != nil {
			t.Fatalf("restore %s: %v", stage, err)
		}
		got, err := os.ReadFile(filepath.Join(dst, "data.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restore %s: %d bytes differ from the %d backed up", stage, len(got), len(want))
		}
	}
	restore("before dedup-2")
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	restore("after dedup-2")
}
