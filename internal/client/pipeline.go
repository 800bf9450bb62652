package client

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"debar/internal/chunker"
	"debar/internal/fp"
	"debar/internal/proto"
)

// The backup pipeline decouples the four costs the stop-and-wait path
// paid in sequence — disk read, CDC anchoring, SHA-1 fingerprinting, and
// the network round-trip — into overlapping stages:
//
//	reader ──chunks──▶ hash workers ──(reordered by seq)──▶ dispatcher
//	                                                            │ window of K batches
//	                                   send goroutine ◀─────────┤
//	                                   recv goroutine ──verdicts/acks──▶ reply handlers
//
// One reader goroutine anchors files into pooled chunk buffers
// (chunker.AppendNext, no per-chunk allocation); a worker pool computes
// SHA-1 fingerprints; the dispatcher restores stream order by sequence
// number, accumulates FPBatches, and keeps up to Window of them in
// flight over a single connection driven by decoupled send and receive
// goroutines. Replies arrive in request order, and chunk payloads for
// positive verdicts are shipped without blocking the batches behind
// them. Per-file FileEntry ordering is preserved: items are processed in
// reader order, so FileMeta messages leave in file order with each
// file's complete chunk index.

// chunkBufPool recycles chunk payload buffers across files and runs.
var chunkBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

func getChunkBuf() *[]byte { return chunkBufPool.Get().(*[]byte) }

func putChunkBuf(bp *[]byte) {
	if cap(*bp) > 1<<20 {
		return
	}
	*bp = (*bp)[:0]
	chunkBufPool.Put(bp)
}

// item is one unit flowing through the pipeline, ordered by seq.
type item struct {
	seq  uint64
	kind int
	// kindFileStart:
	entry proto.FileEntry
	// kindChunk:
	buf *[]byte // pooled backing buffer; *buf is the chunk payload
	h   fp.FP   // filled in by a hash worker
}

const (
	kindFileStart = iota
	kindChunk
	kindFileEnd
)

// request pairs an outgoing message with what follows its send. The
// server answers one connection's requests in order, except that an
// accepted ChunkBatch gets no reply (BackupDone is the durability
// point). A request with onReply registers an expectation, and the
// receive goroutine hands replies to expectations first in, first out.
// A ChunkBatch has onSent instead, which the send goroutine runs once
// the frame is written. A refusal Ack may arrive in place of any reply,
// because it can answer an earlier ChunkBatch; it fails the attempt.
type request struct {
	msg     any
	onReply func(any) error
	onSent  func()
}

// expectation is a registered reply handler plus the ChunkBatches sent
// between the previous expectation's request and its own: the server
// reads those before it can answer, so the wait for the reply gets one
// I/O timeout per frame ahead and a slow-but-moving link is no stall.
type expectation struct {
	onReply func(any) error
	ahead   int
}

// fpBatch is one accumulating (then in-flight) fingerprint batch.
type fpBatch struct {
	seq   uint64
	fps   []fp.FP
	sizes []uint32
	bufs  []*[]byte
}

func (b *fpBatch) recycle() {
	for _, bp := range b.bufs {
		putChunkBuf(bp)
	}
}

// runPipeline backs up paths over conn with the windowed concurrent data
// path and ends the session. It returns the number of files completed,
// the server's BackupDone and the first error.
func (c *Client) runPipeline(conn *proto.Conn, sess uint64, root string, paths []string) (int, proto.BackupDone, error) {
	window := c.window()
	workers := c.workers()

	cancel := make(chan struct{})
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(cancel)
		})
	}

	hashCh := make(chan *item, workers*2)
	resultCh := make(chan *item, workers*2+16)
	sendCh := make(chan request, window)
	expectCh := make(chan expectation, window)
	slots := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		slots <- struct{}{}
	}

	// Reader: walk the file list, anchor into pooled buffers, emit
	// ordered items. Chunks detour through the hash workers; file
	// boundary markers go straight to the dispatcher. One chunker, and
	// so one read buffer, serves every file.
	ch, err := chunker.New(nil, c.Options.Chunking)
	if err != nil {
		return 0, proto.BackupDone{}, err
	}
	var pipeWG sync.WaitGroup
	pipeWG.Add(1)
	go func() {
		defer pipeWG.Done()
		defer close(hashCh)
		var seq uint64
		emit := func(it *item) bool {
			select {
			case resultCh <- it:
				return true
			case <-cancel:
				return false
			}
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				fail(fmt.Errorf("client: %w", err))
				return
			}
			info, err := f.Stat()
			if err != nil {
				f.Close()
				fail(err)
				return
			}
			ch.Reset(f)
			rel, err := filepath.Rel(root, path)
			if err != nil {
				rel = path
			}
			if !emit(&item{seq: seq, kind: kindFileStart, entry: proto.FileEntry{
				Path: rel, Mode: uint32(info.Mode()), Size: info.Size(),
			}}) {
				f.Close()
				return
			}
			seq++
			for {
				bp := getChunkBuf()
				chunk, err := ch.AppendNext((*bp)[:0])
				if errors.Is(err, io.EOF) {
					putChunkBuf(bp)
					break
				}
				if err != nil {
					putChunkBuf(bp)
					f.Close()
					fail(fmt.Errorf("client: chunking %s: %w", path, err))
					return
				}
				*bp = chunk.Data
				it := &item{seq: seq, kind: kindChunk, buf: bp}
				seq++
				select {
				case hashCh <- it:
				case <-cancel:
					putChunkBuf(bp)
					f.Close()
					return
				}
			}
			f.Close()
			if !emit(&item{seq: seq, kind: kindFileEnd}) {
				return
			}
			seq++
		}
	}()

	// Hash workers: SHA-1 over each chunk, out of order.
	for i := 0; i < workers; i++ {
		pipeWG.Add(1)
		go func() {
			defer pipeWG.Done()
			for it := range hashCh {
				it.h = fp.New(*it.buf)
				select {
				case resultCh <- it:
				case <-cancel:
					putChunkBuf(it.buf)
					return
				}
			}
		}()
	}
	go func() {
		pipeWG.Wait()
		close(resultCh)
	}()

	// Send goroutine: the single writer on conn. After each send it
	// registers the reply expectation, in wire order, or runs the
	// request's onSent when no reply will come.
	go func() {
		defer close(expectCh)
		ahead := 0
		for {
			var req request
			var ok bool
			select {
			case req, ok = <-sendCh:
				if !ok {
					return
				}
			case <-cancel:
				return
			}
			if err := conn.Send(req.msg); err != nil {
				fail(err)
				return
			}
			if req.onSent != nil {
				req.onSent()
				ahead++
				continue
			}
			select {
			case expectCh <- expectation{req.onReply, ahead}:
				ahead = 0
			case <-cancel:
				return
			}
		}
	}()

	// Recv goroutine: the single reader on conn. Each reply goes to the
	// oldest registered expectation; a refusal Ack fails the attempt
	// whichever expectation it arrives in place of (see request).
	recvDone := make(chan struct{})
	ioTimeout := c.ioTimeout()
	go func() {
		defer close(recvDone)
		for e := range expectCh {
			conn.SetTimeouts(ioTimeout*time.Duration(1+e.ahead), ioTimeout)
			msg, err := conn.Recv()
			if err != nil {
				fail(err)
				return
			}
			if ack, ok := msg.(proto.Ack); ok && !ack.OK {
				fail(fmt.Errorf("client: request refused: %w", proto.AckError(ack)))
				return
			}
			if err := e.onReply(msg); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Dispatcher (this goroutine): restore seq order, build FileEntries,
	// cut batches, and manage the window.
	acquire := func() bool {
		// Sample in-flight requests before blocking: a distribution pinned
		// at the window size means the round-trip paces the backup.
		mWindowOccupancy.Observe(float64(window - len(slots)))
		select {
		case <-slots:
			return true
		case <-cancel:
			return false
		}
	}
	release := func() { slots <- struct{}{} }
	enqueue := func(req request) bool {
		// Never blocks while the slot invariant holds (≤ window requests
		// outstanding, sendCh capacity == window); cancel is a safety net.
		select {
		case sendCh <- req:
			return true
		case <-cancel:
			return false
		}
	}

	var (
		cur      *proto.FileEntry
		bat      fpBatch
		batchSeq uint64
		files    int
	)

	fileMetaReply := func(msg any) error {
		if _, ok := msg.(proto.Ack); !ok {
			return fmt.Errorf("client: unexpected FileMeta reply %T", msg)
		}
		release()
		return nil
	}

	// dispatchBatch sends the accumulated FPBatch; its verdict handler
	// ships the needed chunks on the same window slot.
	dispatchBatch := func() bool {
		if len(bat.fps) == 0 {
			return true
		}
		b := bat
		bat = fpBatch{}
		b.seq = batchSeq
		batchSeq++
		if !acquire() {
			b.recycle()
			return false
		}
		req := request{
			msg: proto.FPBatch{SessionID: sess, Seq: b.seq, FPs: b.fps, Sizes: b.sizes},
			onReply: func(msg any) error {
				v, ok := msg.(proto.FPVerdicts)
				if !ok {
					return fmt.Errorf("client: unexpected FPBatch reply %T", msg)
				}
				if v.Seq != b.seq {
					return fmt.Errorf("client: verdicts for batch %d, expected %d", v.Seq, b.seq)
				}
				if len(v.Verdicts) != len(b.fps) {
					return fmt.Errorf("client: verdict length %d != batch %d", len(v.Verdicts), len(b.fps))
				}
				var needFPs []fp.FP
				var needData [][]byte
				var needBufs []*[]byte
				var skipped, skippedBytes int64
				for i := range v.Verdicts {
					if v.NeedsTransfer(i) {
						needFPs = append(needFPs, b.fps[i])
						needData = append(needData, *b.bufs[i])
						needBufs = append(needBufs, b.bufs[i])
					} else {
						// Skip verdict: the server holds the chunk; the
						// fingerprint is already recorded in the file entry,
						// so the payload buffer just recycles unshipped.
						skipped++
						skippedBytes += int64(len(*b.bufs[i]))
						putChunkBuf(b.bufs[i])
					}
				}
				if skipped > 0 {
					mSkippedChunks.Add(skipped)
					mSkippedBytes.Add(skippedBytes)
				}
				if len(needFPs) == 0 {
					release()
					return nil
				}
				// The window slot transfers from the FPBatch to its
				// ChunkBatch, which gets no reply: once the frame is
				// written its buffers recycle and the slot frees.
				creq := request{
					msg: proto.ChunkBatch{SessionID: sess, FPs: needFPs, Data: needData},
					onSent: func() {
						for _, bp := range needBufs {
							putChunkBuf(bp)
						}
						release()
					},
				}
				select {
				case sendCh <- creq:
				case <-cancel:
				}
				return nil
			},
		}
		if !enqueue(req) {
			release()
			b.recycle()
			return false
		}
		return true
	}

	process := func(it *item) bool {
		switch it.kind {
		case kindFileStart:
			e := it.entry
			cur = &e
		case kindChunk:
			size := uint32(len(*it.buf))
			cur.Chunks = append(cur.Chunks, it.h)
			cur.Sizes = append(cur.Sizes, size)
			bat.fps = append(bat.fps, it.h)
			bat.sizes = append(bat.sizes, size)
			bat.bufs = append(bat.bufs, it.buf)
			if len(bat.fps) >= c.batch() {
				return dispatchBatch()
			}
		case kindFileEnd:
			if !dispatchBatch() {
				return false
			}
			if !acquire() {
				return false
			}
			if !enqueue(request{
				msg:     proto.FileMeta{SessionID: sess, Entry: *cur},
				onReply: fileMetaReply,
			}) {
				release()
				return false
			}
			files++
			cur = nil
		}
		return true
	}

	reorder := make(map[uint64]*item)
	var next uint64
loop:
	for {
		select {
		case it, ok := <-resultCh:
			if !ok {
				break loop
			}
			reorder[it.seq] = it
			for {
				n, ok := reorder[next]
				if !ok {
					break
				}
				delete(reorder, next)
				next++
				if !process(n) {
					break loop
				}
			}
		case <-cancel:
			break loop
		}
	}

	// Drain the window: once every slot is back, every reply has been
	// processed, every ChunkBatch is on the wire, and no handler can
	// touch sendCh again.
	for i := 0; i < window; i++ {
		if !acquire() {
			// Cancelled: goroutines unwind through their cancel selects
			// and the caller's conn.Close; sendCh must stay open because
			// a reply handler may still be selecting on it.
			return files, proto.BackupDone{}, firstErr
		}
	}
	// BackupEnd is the last request (sendCh is empty, so this never
	// blocks): its reply, BackupDone, comes after the server has read
	// every ChunkBatch and made the run durable.
	var done proto.BackupDone
	sendCh <- request{
		msg: proto.BackupEnd{SessionID: sess},
		onReply: func(msg any) error {
			var ok bool
			if done, ok = msg.(proto.BackupDone); !ok {
				return fmt.Errorf("client: unexpected BackupEnd reply %T", msg)
			}
			return nil
		},
	}
	close(sendCh) // quiescent: provably no writer left
	select {
	case <-recvDone:
	case <-cancel:
	}

	select {
	case <-cancel:
		return files, proto.BackupDone{}, firstErr
	default:
		return files, done, nil // recvDone closed: done is final
	}
}

// window returns the number of FPBatches kept in flight.
func (c *Client) window() int {
	if c.Options.Window <= 0 {
		return defaultWindow
	}
	return c.Options.Window
}

// workers returns the size of the fingerprinting worker pool.
func (c *Client) workers() int {
	if c.Options.Workers > 0 {
		return c.Options.Workers
	}
	n := defaultWorkers()
	if n < 1 {
		n = 1
	}
	return n
}
