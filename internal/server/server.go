// Package server implements a DEBAR backup server (paper §3.3): the File
// Store module performing dedup-1 on incoming client streams (preliminary
// filtering, file indexing, chunk logging) and the Chunk Store module
// performing dedup-2 (SIL, chunk storing, SIU) plus LPC-cached restores.
//
// A server has one storage design: a store.Engine owns the chunk-log WAL
// the File Store appends to, and the container log and disk index the
// Chunk Store drains it into. An accepted chunk batch gets no reply: the
// WAL's flusher syncs its records in the background and nothing waits on
// it. The durability point is BackupDone, which goes out only after the
// WAL's barrier, an fsync covering every chunk the run references. A
// short-lived server (tests, examples) is simply an engine on a
// temporary directory.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/fp"
	"debar/internal/obs"
	"debar/internal/prefilter"
	"debar/internal/proto"
	"debar/internal/retry"
	"debar/internal/store"
	"debar/internal/tpds"
)

// Server metric series (process registry; see the debar package comment
// for the full catalog). Hot-path counters are batched: fpBatch and
// chunkBatch accumulate locally and issue one atomic add per batch.
var (
	mConnsAccepted  = obs.GetCounter("server_conns_accepted_total")
	mConnsActive    = obs.GetGauge("server_conns_active")
	mSessionsOpened = obs.GetCounter("server_sessions_opened_total")
	mSessionsReaped = obs.GetCounter("server_sessions_reaped_total")
	mSessionsActive = obs.GetGauge("server_sessions_active")
	mFPBatches      = obs.GetCounter("server_fp_batches_total")
	mPrefilterHits  = obs.GetCounter("server_prefilter_hits_total")
	mPrefilterMiss  = obs.GetCounter("server_prefilter_misses_total")
	mLoggedDupHits  = obs.GetCounter("server_logged_dup_hits_total")
	mChunkBatches   = obs.GetCounter("server_chunk_batches_total")
	mBytesIn        = obs.GetCounter("server_chunk_bytes_in_total")
	mLogPending     = obs.GetGauge("server_pending_fps")
	mDedup2Passes   = obs.GetCounter("server_dedup2_passes_total")
	mDedup2Errors   = obs.GetCounter("server_dedup2_errors_total")
	mDedup2SILSec   = obs.GetHistogram("server_dedup2_sil_seconds", obs.DurationBuckets)
	mDedup2StoreSec = obs.GetHistogram("server_dedup2_store_seconds", obs.DurationBuckets)
	mDedup2SIUSec   = obs.GetHistogram("server_dedup2_siu_seconds", obs.DurationBuckets)
	mDedup2Read     = obs.GetCounter("dedup2_pass_read_bytes_total")
	mDedup2Retire   = obs.GetHistogram("dedup2_pass_retire_seconds", obs.DurationBuckets)
	mRestoreStreams = obs.GetCounter("server_restore_streams_total")
	mBytesOut       = obs.GetCounter("server_restore_bytes_out_total")
	mRestoreStalls  = obs.GetCounter("server_restore_window_stalls_total")
	mInlineDupHits  = obs.GetCounter("server_inline_dup_hits_total")
	mInlineSkipped  = obs.GetCounter("server_inline_skipped_bytes_total")
	mLogicalBytes   = obs.GetCounter("server_backup_logical_bytes_total")
)

// Config sizes a backup server.
type Config struct {
	IndexBits     uint   // disk index bucket bits for a new DataDir (0 = store default)
	ContainerSize int    // default 8 MB
	DirectorAddr  string // the director this server registers with and records runs in; required

	// Storage and DataDir name the server's store engine; exactly one
	// must be set. Storage is an engine the caller already opened (fault
	// tests inject faults into it): container repository, disk index and
	// chunk-log WAL all come from it, and the server takes ownership
	// (Close closes it). DataDir opens (creating if needed) an engine at
	// the path with this Config's index geometry; the daemon binaries set
	// it from -data-dir.
	Storage *store.Engine
	DataDir string

	// IdleTimeout is the per-connection idle read deadline and the
	// server's session reaper in one: a connection that goes silent for
	// this long (client SIGKILL, NAT half-open, cut link with no FIN) is
	// closed, and any backup sessions it opened are reclaimed instead of
	// leaking until process exit. The chunks they already logged stay in
	// the chunk log for the next dedup-2 pass. 0 selects 5 minutes;
	// negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each transport write on accepted connections,
	// so a stalled peer cannot pin a restore stream forever. Per-syscall,
	// not per-file: a slow-but-moving bulk restore never trips it.
	// 0 selects 2 minutes; negative disables.
	WriteTimeout time.Duration
	// ControlTimeout bounds the dial and each I/O of the server's
	// outbound director control calls. 0 selects 10 seconds; negative
	// disables the I/O deadlines.
	ControlTimeout time.Duration
	// ControlRetries is how many extra attempts a transient director
	// control-call failure gets (the calls — NewRun, PutFileIndex,
	// GetJobFiles — are idempotent or tolerate duplicates). 0 selects 2;
	// negative disables retries.
	ControlRetries int

	// DisableInlineDedup withholds proto.CapInlineDedup from capability
	// negotiation: verdicts come from the preliminary filter and chunk log
	// alone, and duplicates already in containers are caught by dedup-2.
	// For interop testing and for measuring the inline fast path's
	// contribution; the stored state converges identically either way.
	DisableInlineDedup bool

	// Dedup2StageHook, when non-nil, is invoked at dedup-2 stage
	// boundaries ("sil-stored" after SIL and chunk storing have appended
	// the pass's containers, "siu-done" after the index writes).
	// Fault-injection tests use it to snapshot or kill the store between
	// stages; production leaves it nil.
	Dedup2StageHook func(stage string)

	// Logger receives the server's structured log events (connection
	// and session lifecycle at debug, dedup-2 summaries at info,
	// reaped sessions and dropped close errors at warn, read-only
	// latching at error). Nil uses slog.Default(), which the daemon
	// binaries configure from -log-level/-log-json.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ContainerSize == 0 {
		c.ContainerSize = container.DefaultSize
	}
	c.IdleTimeout = resolveTimeout(c.IdleTimeout, 5*time.Minute)
	c.WriteTimeout = resolveTimeout(c.WriteTimeout, 2*time.Minute)
	c.ControlTimeout = resolveTimeout(c.ControlTimeout, 10*time.Second)
	if c.ControlRetries == 0 {
		c.ControlRetries = 2
	} else if c.ControlRetries < 0 {
		c.ControlRetries = 0
	}
	return c
}

// resolveTimeout maps the knob convention (0 = default, negative =
// disabled) onto a concrete duration where 0 means disabled.
func resolveTimeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// filterBits sizes each session's preliminary filter (2^14 buckets, no
// capacity limit) and cacheBits the index cache of a dedup-2 pass.
const (
	filterBits = 14
	cacheBits  = 12
)

// Restore-stream flow control. Clients that do not size their own stream
// (proto.RestoreFile fields left zero) get restoreBatchChunks chunks per
// RestoreChunkBatch and restoreWindow unacknowledged batches in flight;
// larger requests are clamped to the hard caps. Every batch is also cut
// at maxRestoreBatchBytes: 4 MB keeps every frame far below
// proto.MaxFrame even at the maximum chunk size while amortising the
// per-frame overhead.
const (
	restoreBatchChunks    = 256
	restoreWindow         = 4
	maxRestoreBatchChunks = 4096
	maxRestoreWindow      = 64
	maxRestoreBatchBytes  = 4 << 20
)

// clampRestore resolves a client-requested flow-control value against the
// server default and hard cap.
func clampRestore(req, def, max int) int {
	if req <= 0 {
		return def
	}
	return min(req, max)
}

// session is one client backup session (one job run). Its mutex makes the
// session state safe on its own, so sessions never contend with each
// other: fpBatch/chunkBatch traffic from different clients proceeds in
// parallel (the scaling behaviour of paper Figures 14–15).
type session struct {
	id      uint64
	jobName string
	runID   uint64
	caps    proto.Caps // negotiated capabilities; immutable after startBackup

	mu      sync.Mutex
	filter  *prefilter.Filter // guarded by mu
	logical int64             // guarded by mu
	xfer    int64             // guarded by mu
	newFPs  int64             // guarded by mu
	skipped int64             // guarded by mu; logical bytes elided by inline dedup verdicts
	// owed maps each chunk of a refused ChunkBatch that no later batch
	// delivered to its refusal; BackupEnd is refused while any is owed.
	owed map[fp.FP]error // guarded by mu
}

// Server is one backup server.
//
// Locking is deliberately fine-grained: mu guards only connection
// lifecycle and the session table; each session carries its own lock;
// the shared Restorer is internally synchronised with its lock scoped to
// the LPC cache state, so concurrent restore streams overlap at chunk
// granularity instead of queueing behind a server-wide restore lock. The
// server keeps no dedup-2 state of its own: the chunk log is dedup-2's
// work queue (its unconsumed records are the chunks a pass has yet to
// store, and their fingerprints are the logged set dedup-1 consults),
// and a pass is one chunklog.Log.Drain transaction over it, serialised
// by the log. No server-wide lock is ever held across a data-path batch
// or a restore loop.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint64]*session      // guarded by mu
	nextSess uint64                   // guarded by mu
	conns    map[*proto.Conn]struct{} // guarded by mu; accepted, still-open connections
	handlers sync.WaitGroup           // in-flight handle goroutines
	ln       net.Listener             // guarded by mu
	addr     string                   // guarded by mu
	serverID int                      // guarded by mu
	closed   bool                     // guarded by mu

	log      *chunklog.Log
	chunk    *tpds.ChunkStore // synchronous SIU, no checking file: stateless between passes
	restorer *tpds.Restorer   // internally synchronised
	storage  *store.Engine
	slog     *slog.Logger
}

// New builds a backup server on the store engine named by exactly one of
// cfg.Storage and cfg.DataDir: containers, index and chunk log all live
// in one data directory and survive restarts, with crash recovery on
// open.
func New(cfg Config) (*Server, error) {
	if (cfg.Storage == nil) == (cfg.DataDir == "") {
		return nil, errors.New("server: exactly one of Config.Storage and Config.DataDir must be set")
	}
	if cfg.DirectorAddr == "" {
		return nil, errors.New("server: Config.DirectorAddr must be set: a server without a director cannot record a run")
	}
	cfg = cfg.withDefaults()
	eng := cfg.Storage
	if eng == nil {
		var err error
		eng, err = store.Open(cfg.DataDir, store.Options{IndexBits: cfg.IndexBits})
		if err != nil {
			return nil, fmt.Errorf("server: opening data dir: %w", err)
		}
	}

	ix, repo := eng.Index(), eng.Repo()
	cs := tpds.NewChunkStore(ix, repo, false, false)
	cs.ContainerSize = cfg.ContainerSize
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	// Chunks logged before a restart are pending and Logged in the
	// recovered WAL: the next dedup-2 pass stores them, and no session
	// needs to send a second copy.
	mLogPending.Set(eng.ChunkLog().Count())
	// A restore reads chunks no pass has stored yet from the WAL.
	rs := tpds.NewRestorer(ix, repo, 16)
	rs.Log = eng.ChunkLog()
	return &Server{
		cfg:      cfg,
		sessions: make(map[uint64]*session),
		conns:    make(map[*proto.Conn]struct{}),
		log:      eng.ChunkLog(),
		chunk:    cs,
		restorer: rs,
		storage:  eng,
		slog:     lg,
	}, nil
}

// Serve starts the TCP endpoint and registers with the director. Returns
// the bound address.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	lnAddr := ln.Addr().String()
	s.mu.Lock()
	s.ln = ln
	s.addr = lnAddr
	s.mu.Unlock()

	// A one-shot connection: registration is the only director call
	// outside a connection handler.
	reg := &connState{}
	msg, err := s.directorCall(reg, proto.RegisterServer{Addr: lnAddr})
	reg.closeDirector()
	if err != nil {
		ln.Close()
		return "", fmt.Errorf("server: registering with director: %w", err)
	}
	if ok, is := msg.(proto.RegisterOK); is {
		s.mu.Lock()
		s.serverID = ok.ServerID
		s.mu.Unlock()
	}

	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := proto.NewConn(c)
			// The idle read deadline doubles as the session reaper's
			// trigger: a silent peer fails the handler's Recv, and the
			// handler's exit path reclaims its sessions.
			conn.SetTimeouts(s.cfg.IdleTimeout, s.cfg.WriteTimeout)
			if !s.track(conn) {
				conn.Close() // raced with Close
				return
			}
			mConnsAccepted.Inc()
			s.slog.Debug("connection accepted", "remote", c.RemoteAddr().String())
			go s.handle(conn)
		}
	}()
	return lnAddr, nil
}

// track registers an accepted connection; it reports false once the
// server is closed.
func (s *Server) track(conn *proto.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	mConnsActive.Add(1)
	return true
}

// untrack forgets a finished connection.
func (s *Server) untrack(conn *proto.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	mConnsActive.Add(-1)
	s.handlers.Done()
}

// Close stops the listener and closes every active per-connection
// handler, so in-flight handle goroutines unblock promptly instead of
// lingering until the peer hangs up.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]*proto.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Handlers may still hold zero-copy slices into the engine's
	// mappings (restore loops); closing the storage out from under them
	// would turn a graceful shutdown into a SIGBUS. The closed conns
	// unblock them promptly.
	s.handlers.Wait()
	if serr := s.storage.Close(); err == nil {
		err = serr
	}
	return err
}

// dialDirector opens a control connection to the director, with the
// control dial and I/O deadlines armed.
func (s *Server) dialDirector() (*proto.Conn, error) {
	conn, err := proto.DialTimeout(s.cfg.DirectorAddr, s.cfg.ControlTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetTimeouts(s.cfg.ControlTimeout, s.cfg.ControlTimeout)
	return conn, nil
}

// directorCall sends one request over the handler's director connection
// and decodes one reply, dialling on first use. Any failure closes the
// connection and drops it, so a reply that arrives late (after a
// timeout) can never be taken for the next call's reply; transient
// failures (director restarting, dropped or idle-reaped connection) are
// retried with backoff over a fresh dial. Every control call is safe to
// repeat: NewRun at worst allocates an extra run that stays empty,
// PutFileIndex tolerates a duplicate entry (the restore path resolves by
// path, last write wins), a repeated EndRun marks the same run complete
// again, and the reads are pure.
func (s *Server) directorCall(st *connState, req any) (any, error) {
	var reply any
	err := retry.Policy{Attempts: s.cfg.ControlRetries + 1, Base: 50 * time.Millisecond}.Do(func() error {
		if st.director == nil {
			conn, err := s.dialDirector()
			if err != nil {
				return err
			}
			st.director = conn
		}
		err := st.director.Send(req)
		if err == nil {
			reply, err = st.director.Recv()
		}
		if err != nil {
			st.closeDirector()
		}
		return err
	})
	return reply, err
}

// jobFilesCache memoises one job's file entries for the lifetime of a
// connection, so restoring or verifying an N-file job fetches the
// director's entry list once instead of once per file (O(N²) metadata
// traffic otherwise) and resolves each path in O(1) instead of a linear
// scan. Pinning the list also gives one restore pass a consistent run
// snapshot even if a new run of the job completes while it streams.
// Owned by a single handler goroutine — no locking.
type jobFilesCache struct {
	job     string
	entries map[string]proto.FileEntry
}

// connState is the per-connection handler state: the job-files cache,
// the backup sessions opened on this connection (so the handler's exit
// path can reclaim sessions whose client vanished), and the handler's
// one director connection, which every director call the handler makes
// reuses instead of dialling per file. Owned by a single handler
// goroutine — no locking.
type connState struct {
	jfc      jobFilesCache
	sess     []uint64
	director *proto.Conn // nil until first use and after any failure
}

// closeDirector closes and drops the director connection, if any.
func (st *connState) closeDirector() {
	if st.director != nil {
		st.director.Close()
		st.director = nil
	}
}

// ackFromErr converts a dispatch error into the wire Ack, preserving a
// typed in-band error's code.
func ackFromErr(err error) proto.Ack {
	ack := proto.Ack{OK: false, Err: err.Error()}
	var re *proto.RemoteError
	if errors.As(err, &re) {
		ack.Code, ack.Err = re.Code, re.Msg
	}
	return ack
}

// frameQueueDepth bounds decode-ahead per connection: one frame of
// lookahead is what overlaps decode with the filter/WAL work.
const frameQueueDepth = 2

// frame is one decoded frame and, for a ChunkBatch or RestoreChunkBatch,
// the connection's receive buffer its chunk payloads alias.
type frame struct {
	msg any
	buf *[]byte // nil for every other frame
}

// recvBufs holds a connection's free receive buffers for bulk frames.
// There are frameQueueDepth+2 of them — the queued frames', the one
// being dispatched and the one being read — so the reader never waits
// for one while the dispatcher makes progress. A buffer goes back once
// nothing aliases it, and all of them go with the connection.
type recvBufs chan *[]byte

func newRecvBufs() recvBufs {
	b := make(recvBufs, frameQueueDepth+2)
	for range cap(b) {
		b <- new([]byte)
	}
	return b
}

// put returns the buffer of a handled frame, if it has one.
func (b recvBufs) put(f frame) {
	if f.buf != nil {
		b <- f.buf
	}
}

// handle runs one connection as two stages: a reader goroutine decodes
// frame N+1 off the wire while this goroutine dispatches frame N and
// sends its reply. An accepted ChunkBatch has no reply, so every reply
// goes out inline and in request order.
func (s *Server) handle(conn *proto.Conn) {
	defer s.untrack(conn)
	st := &connState{}
	// The reaper: however this handler exits — peer hung up, link cut,
	// idle deadline expired, server closing — sessions that never reached
	// BackupEnd are reclaimed.
	defer s.reclaimSessions(st)
	defer st.closeDirector()

	frames := make(chan frame, frameQueueDepth)
	bufs := newRecvBufs()
	var recvErr error // the reader's last error; read only after frames closes
	go func() {
		defer close(frames)
		buf := <-bufs
		for {
			msg, err := conn.RecvInto(buf)
			if err != nil {
				recvErr = err
				return
			}
			f := frame{msg: msg}
			switch msg.(type) {
			case proto.ChunkBatch, proto.RestoreChunkBatch:
				f.buf, buf = buf, <-bufs
			}
			frames <- f
		}
	}()
	// Exit path (runs before the reclaim above): close the conn first —
	// failing a Recv the reader is blocked in — then drain frames, giving
	// their buffers back, so a reader stuck sending a decoded frame or
	// waiting for a buffer can finish and exit. A close error here used
	// to be discarded; it can be the only evidence of an unflushed
	// failure on the connection, so it is logged.
	defer func() {
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			s.slog.Warn("connection close failed", "sessions", st.sess, "err", err)
		}
		for f := range frames {
			bufs.put(f)
		}
	}()

	for f := range frames {
		// RestoreFile opens a multi-frame exchange (batches out, acks in)
		// rather than one reply: the stream owns the connection's send
		// side while its acks keep arriving through frames. streamRestore
		// only errors when the connection itself is dead.
		if rf, ok := f.msg.(proto.RestoreFile); ok {
			if err := s.streamRestore(conn, frames, st, rf); err != nil {
				return
			}
			continue
		}
		reply, err := s.dispatch(f.msg, st)
		// No reply aliases the frame's buffer: chunkBatch's log copies
		// the chunks it keeps.
		bufs.put(f)
		if err != nil {
			reply = ackFromErr(err)
		}
		if reply == nil {
			continue // an accepted ChunkBatch
		}
		if err := conn.Send(reply); err != nil {
			return
		}
	}
	// A peer at protocol version 3 or older opens with a gob frame; it
	// gets a typed refusal it can decode instead of a dropped connection.
	if errors.Is(recvErr, proto.ErrLegacyFrame) {
		conn.Send(proto.LegacyRefusal())
	}
}

// reclaimSessions removes a vanished client's sessions. Their chunks need
// no hand-off: every chunk that reached the server is a chunk-log record,
// which the next dedup-2 pass stores, and the log's Logged set tells a
// retrying client not to send it again.
func (s *Server) reclaimSessions(st *connState) {
	for _, id := range st.sess {
		s.mu.Lock()
		sess, ok := s.sessions[id]
		delete(s.sessions, id)
		s.mu.Unlock()
		if !ok {
			continue // reached BackupEnd normally
		}
		mSessionsReaped.Inc()
		mSessionsActive.Add(-1)
		// A vanished client's session disappearing (idle deadline, cut
		// link) is exactly the event an operator needs context for.
		s.slog.Warn("session reclaimed", "session", id, "job", sess.jobName, "run", sess.runID)
	}
}

func (s *Server) dispatch(msg any, st *connState) (any, error) {
	switch m := msg.(type) {
	case proto.BackupStart:
		return s.startBackup(m, st)
	case proto.FPBatch:
		return s.fpBatch(m)
	case proto.ChunkBatch:
		return nil, s.chunkBatch(m)
	case proto.FileMeta:
		return s.fileMeta(m, st)
	case proto.BackupEnd:
		return s.endBackup(m, st)
	case proto.ListFiles:
		return s.listFiles(m, st)
	case proto.RestoreMeta:
		return s.restoreMeta(m, st)
	case proto.Dedup2Request:
		return s.runDedup2(), nil
	default:
		return nil, fmt.Errorf("server: unexpected message %T", msg)
	}
}

// readOnlyRefusal builds the typed in-band error for a store that took a
// write fault; clients surface it without retrying.
func readOnlyRefusal(cause error) *proto.RemoteError {
	return &proto.RemoteError{Code: proto.CodeReadOnly, Msg: "server: store is read-only: " + cause.Error()}
}

// latchFault flips the store read-only after a write fault and
// logs the degradation (once — Fail itself is first-fault-wins, so a
// repeat latch with the mode already set stays quiet).
func (s *Server) latchFault(err error) {
	if s.storage.ReadOnlyErr() == nil {
		s.slog.Error("store latched read-only, refusing further writes", "err", err)
	}
	s.storage.Fail(err)
}

func (s *Server) startBackup(m proto.BackupStart, st *connState) (any, error) {
	// A peer older than the minimum version would expect a retired frame
	// form; refuse it before any session or director state exists.
	if m.Version < proto.ProtocolVersion {
		return nil, &proto.RemoteError{Code: proto.CodeUnsupportedVersion, Msg: fmt.Sprintf(
			"server: protocol version %d unsupported, need %d", m.Version, proto.ProtocolVersion)}
	}
	if roErr := s.storage.ReadOnlyErr(); roErr != nil {
		return nil, readOnlyRefusal(roErr)
	}
	// Allocate a run with the director and fetch the job chain's
	// filtering fingerprints (§5.1).
	reply, err := s.directorCall(st, proto.NewRun{JobName: m.JobName, Client: m.Client})
	if err != nil {
		return nil, err
	}
	if ack, is := reply.(proto.Ack); is && !ack.OK {
		return nil, fmt.Errorf("server: director opened no run: %w", proto.AckError(ack))
	}
	ok, is := reply.(proto.NewRunOK)
	if !is {
		return nil, fmt.Errorf("server: unexpected NewRun reply %T", reply)
	}
	runID := ok.RunID
	var filterFPs []fp.FP
	if fpsReply, err := s.directorCall(st, proto.GetFilterFPs{JobName: m.JobName}); err == nil {
		if ff, is := fpsReply.(proto.FilterFPs); is {
			filterFPs = ff.FPs
		}
	}

	filter := prefilter.New(filterBits, 0)
	for _, f := range filterFPs {
		filter.Prime(f)
	}

	// Capability negotiation: the session gets the intersection of the
	// client's offer and what this server is willing to use. A client
	// offering none gets send-everything verdicts: its duplicates are
	// caught by the job-chain filter and dedup-2 alone.
	serverCaps := proto.CapInlineDedup
	if s.cfg.DisableInlineDedup {
		serverCaps = 0
	}
	caps := m.Caps & serverCaps

	s.mu.Lock()
	s.nextSess++
	sess := &session{
		id:      s.nextSess,
		jobName: m.JobName,
		runID:   runID,
		caps:    caps,
		filter:  filter,
	}
	s.sessions[sess.id] = sess
	st.sess = append(st.sess, sess.id)
	s.mu.Unlock()
	mSessionsOpened.Inc()
	mSessionsActive.Add(1)
	s.slog.Debug("session opened", "session", sess.id, "job", m.JobName, "client", m.Client)
	return proto.BackupStartOK{SessionID: sess.id, Version: proto.ProtocolVersion, Caps: caps}, nil
}

func (s *Server) getSession(id uint64) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("server: unknown session %d", id)
	}
	return sess, nil
}

func (s *Server) fpBatch(m proto.FPBatch) (any, error) {
	sess, err := s.getSession(m.SessionID)
	if err != nil {
		return nil, err
	}
	if len(m.FPs) != len(m.Sizes) {
		return nil, errors.New("server: FPBatch lengths differ")
	}
	inline := sess.caps.Has(proto.CapInlineDedup)
	// Cross-session dedup at the log layer: a chunk some concurrent
	// session already landed in the chunk log needs no second copy, even
	// though this session's own preliminary filter has never seen it; and
	// a client retrying an interrupted backup re-ships only the chunks
	// that never landed. The log answers only after a successful append,
	// so a skip verdict built on it never references bytes the log does
	// not hold.
	logged := s.log.Logged(m.FPs)
	verdicts := make([]proto.Verdict, len(m.FPs))
	var hits, misses, logDups int64 // batch-local; one atomic add each below
	var inlineHits, inlineBytes, logical int64
	sess.mu.Lock()
	for i, f := range m.FPs {
		sz := int64(m.Sizes[i])
		sess.logical += sz
		logical += sz
		sess.xfer += fp.Size + 1
		// Checked before the filter's test-and-set so the session's
		// new-fingerprint accounting stays honest; the chunk reaches
		// dedup-2 through the session that logged it.
		if logged[i] {
			logDups++
			hits++
			verdicts[i] = proto.VerdictSkipDuplicate
			continue
		}
		if inline {
			// Inline dedup fast path (CapInlineDedup sessions): before the
			// filter's test-and-set, probe the filter non-mutatingly and
			// then the disk index/LPC. An index hit means the chunk sits in
			// a committed container (containers commit before SIU publishes
			// their index entries, and crash recovery rebuilds the index
			// from container metadata), so a skip verdict never references
			// bytes a crash could lose. The fingerprint is primed — not
			// new-marked — into the filter, so it keeps filtering this
			// stream's repeats without counting as new; its chunk is never
			// re-logged, so dedup-2 never sees it. Index misses fall through to
			// the plain filter test, and any false negative is caught by
			// dedup-2 — the decisions the store converges on are identical
			// with the fast path on or off.
			if sess.filter.Contains(f) {
				hits++
				verdicts[i] = proto.VerdictSkipDuplicate
				continue
			}
			if s.restorer.Known(f) {
				sess.filter.Prime(f)
				inlineHits++
				inlineBytes += sz
				sess.skipped += sz
				verdicts[i] = proto.VerdictSkipDuplicate
				continue
			}
			// Contains missed and the index missed: Test below takes its
			// miss-insert path, exactly as if Contains was never called.
		}
		if tr, _ := sess.filter.Test(f); tr {
			verdicts[i] = proto.VerdictSend
			misses++
			sess.newFPs++
		} else {
			verdicts[i] = proto.VerdictSkipDuplicate
			hits++
		}
	}
	sess.mu.Unlock()
	mFPBatches.Inc()
	mPrefilterHits.Add(hits)
	mPrefilterMiss.Add(misses)
	mLoggedDupHits.Add(logDups)
	mLogicalBytes.Add(logical)
	if inlineHits > 0 {
		mInlineDupHits.Add(inlineHits)
		mInlineSkipped.Add(inlineBytes)
	}
	return proto.FPVerdicts{Seq: m.Seq, Verdicts: verdicts}, nil
}

// chunkBatch logs an accepted batch and sends nothing back; a refused
// batch (unknown session, fingerprint mismatch, read-only store) is
// answered with a typed refusal.
func (s *Server) chunkBatch(m proto.ChunkBatch) (err error) {
	sess, err := s.getSession(m.SessionID)
	if err != nil {
		return err
	}
	// A refused batch's chunks are owed until a later batch delivers
	// them. The client learns of a refusal only in place of a later
	// reply, possibly after it has sent BackupEnd, which must then be
	// refused too.
	defer func() {
		if err == nil {
			return
		}
		sess.mu.Lock()
		if sess.owed == nil {
			sess.owed = make(map[fp.FP]error)
		}
		for _, f := range m.FPs {
			if _, ok := sess.owed[f]; !ok {
				sess.owed[f] = err
			}
		}
		sess.mu.Unlock()
	}()
	if len(m.FPs) != len(m.Data) {
		return errors.New("server: ChunkBatch lengths differ")
	}
	// Validate the whole batch before appending anything, so a mid-batch
	// fingerprint mismatch rejects the batch atomically instead of
	// leaving earlier chunks in the log with the session accounting
	// inconsistent.
	for i, f := range m.FPs {
		if got := fp.New(m.Data[i]); got != f {
			return fmt.Errorf("server: chunk %d fingerprint mismatch (corruption in transit)", i)
		}
	}
	if roErr := s.storage.ReadOnlyErr(); roErr != nil {
		return readOnlyRefusal(roErr)
	}
	// The batch's Data slices alias the connection's receive buffer,
	// which the handler reuses for a later frame once this returns: the
	// WAL copies each chunk it logs into its own frame buffer, and
	// nothing else here keeps a slice of it. A chunk whose fingerprint is
	// already in the chunk log (this session's verdict raced a concurrent
	// session's append) adds no information: AppendNewBatch skips it, and
	// BackupEnd's barrier covers the earlier append. Nothing waits on the
	// batch's records here: the WAL's flusher syncs them, and a failed
	// fsync latches the store read-only (ReadOnlyErr) on its own.
	var batchBytes int64
	for _, d := range m.Data {
		batchBytes += int64(len(d))
	}
	logged, err := s.log.AppendNewBatch(m.FPs, m.Data)
	if err != nil {
		// A failed append (ENOSPC, media error) flips the store
		// read-only: the WAL tail is no longer trustworthy for further
		// writes, but every completed run is intact and restores keep
		// serving. The client gets the typed refusal instead of a retry
		// loop.
		s.latchFault(err)
		return readOnlyRefusal(err)
	}
	mChunkBatches.Inc()
	mBytesIn.Add(batchBytes)
	mLogPending.Add(int64(logged))
	sess.mu.Lock()
	sess.xfer += batchBytes
	for _, f := range m.FPs {
		delete(sess.owed, f)
	}
	sess.mu.Unlock()
	return nil
}

func (s *Server) fileMeta(m proto.FileMeta, st *connState) (any, error) {
	sess, err := s.getSession(m.SessionID)
	if err != nil {
		return nil, err
	}
	reply, err := s.directorCall(st, proto.PutFileIndex{
		JobName: sess.jobName, RunID: sess.runID, Entry: m.Entry,
	})
	if err != nil {
		return nil, err
	}
	if ack, is := reply.(proto.Ack); is && !ack.OK {
		return nil, errors.New(ack.Err)
	}
	return proto.Ack{OK: true}, nil
}

func (s *Server) endBackup(m proto.BackupEnd, st *connState) (any, error) {
	sess, err := s.getSession(m.SessionID)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	var refused error
	for _, err := range sess.owed {
		refused = err
		break
	}
	done := proto.BackupDone{
		LogicalBytes:       sess.logical,
		TransferredBytes:   sess.xfer,
		NewFingerprints:    sess.newFPs,
		InlineSkippedBytes: sess.skipped,
	}
	sess.mu.Unlock()
	if refused != nil {
		return nil, refused
	}

	// Durability barrier before the run is marked complete, and the only
	// wait on the WAL: this run's recipes reference chunks its own
	// batches logged and chunks a concurrent session appended (the
	// log-layer dedup above). The barrier returns once an fsync covering
	// every earlier append has completed, after which everything the run
	// references is on disk, or with the WAL's first failed fsync, which
	// has latched the store read-only.
	if err := s.log.Sync(); err != nil {
		return nil, readOnlyRefusal(err)
	}

	// Mark the run complete with the director before tearing the session
	// down: only complete runs serve as a restore source or contribute
	// filtering fingerprints, so an aborted backup (whose FileMeta entries
	// may reference chunks that never arrived) is never trusted.
	reply, err := s.directorCall(st, proto.EndRun{
		JobName: sess.jobName, RunID: sess.runID,
	})
	if err != nil {
		return nil, err
	}
	if ack, is := reply.(proto.Ack); is && !ack.OK {
		return nil, errors.New(ack.Err)
	}

	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	mSessionsActive.Add(-1)
	s.slog.Debug("session completed",
		"session", sess.id, "job", sess.jobName, "run", sess.runID,
		"logical_bytes", done.LogicalBytes, "transferred_bytes", done.TransferredBytes,
		"new_fps", done.NewFingerprints)
	return done, nil
}

// SessionCount reports the live backup sessions (tests, monitoring).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// runDedup2 runs one dedup-2 pass as a single transaction over the chunk
// log (chunklog.Log.Drain): SIL over the transaction's fingerprints,
// chunk storing over the records of the fingerprints SIL left new, SIU,
// and a Checkpoint that makes the index and containers durable. Only then
// are the records consumed, live sessions or not, and the WAL segments
// they leave empty retired. Any failure consumes nothing: the records
// stay for the retry, and the server keeps nothing from the failed pass
// (containers it appended stay unreferenced; the retry's SIL finds
// whatever its SIU wrote and stores the rest again).
func (s *Server) runDedup2() proto.Dedup2Done {
	var res tpds.Dedup2Result
	var pending int
	var read int64
	var fnDone time.Time
	err := s.log.Drain(func(tx *chunklog.Txn) error {
		if roErr := s.storage.ReadOnlyErr(); roErr != nil {
			// A pass on a faulted store would append containers it cannot
			// trust; refuse it. The chunk log keeps every record for a
			// pass after the operator restarts with the fault cleared.
			return readOnlyRefusal(roErr)
		}
		pending = len(tx.FPs)
		r, unreg, err := s.chunk.RunSILAndStore(tx.FPs, tx, cacheBits)
		read = tx.ReadBytes()
		mDedup2Read.Add(read)
		if err != nil {
			return err
		}
		mDedup2SILSec.ObserveDuration(r.SILTime)
		mDedup2StoreSec.ObserveDuration(r.StoreTime)
		s.stageHook("sil-stored")
		siuStart := time.Now()
		if err := s.chunk.RunSIU(unreg); err != nil {
			return err
		}
		mDedup2SIUSec.Since(siuStart)
		s.stageHook("siu-done")
		res = r
		// Make the pass durable — fsync the index and write the clean
		// marker, so a restart trusts the index file instead of
		// rebuilding it from container metadata — before Drain consumes
		// the records and retires their WAL segments.
		if err := s.storage.Checkpoint(); err != nil {
			return err
		}
		fnDone = time.Now()
		return nil
	})
	if !fnDone.IsZero() {
		mDedup2Retire.Since(fnDone)
	}
	mLogPending.Set(s.log.Count())
	if err != nil {
		s.failOnDiskFault(err)
		mDedup2Errors.Inc()
		s.slog.Warn("dedup-2 pass failed, chunk log kept for a retry",
			"pending_fps", pending, "err", err)
		return proto.Dedup2Done{Err: err.Error()}
	}
	dups := res.IndexDups + res.Store.DupChunks
	if res.Store.NewChunks > 0 {
		// A pass that stores chunks drops its working set here: the index
		// cache, the WAL read window, the container buffer and the SIL
		// scan's buffers. Backup ingest reuses its buffers and makes
		// little garbage, so the next collection can be far off and that
		// dead heap would stay resident through the restores and backups
		// that follow: return it now.
		debug.FreeOSMemory()
	}
	mDedup2Passes.Inc()
	s.slog.Info("dedup-2 pass complete",
		"undetermined_fps", pending,
		"new_chunks", res.Store.NewChunks,
		"dup_chunks", dups,
		"containers", res.Store.Containers,
		"read_bytes", read)
	return proto.Dedup2Done{
		NewChunks:  res.Store.NewChunks,
		DupChunks:  dups,
		Containers: res.Store.Containers,
	}
}

// stageHook reports a dedup-2 stage boundary to Config.Dedup2StageHook.
func (s *Server) stageHook(stage string) {
	if s.cfg.Dedup2StageHook != nil {
		s.cfg.Dedup2StageHook(stage)
	}
}

// failOnDiskFault flips the store read-only when a dedup-2 stage failed
// because the disk is full or the medium refuses writes: further appends
// would only dig the hole deeper, while the unconsumed chunk log keeps
// every logged chunk reachable for a pass after the operator intervenes.
// A full disk index (diskindex.ErrIndexFull) is not a medium fault and
// does not latch.
func (s *Server) failOnDiskFault(err error) {
	for _, fault := range []error{syscall.ENOSPC, syscall.EIO, syscall.EROFS, syscall.EDQUOT} {
		if errors.Is(err, fault) {
			s.latchFault(err)
			return
		}
	}
}

func (s *Server) listFiles(m proto.ListFiles, st *connState) (any, error) {
	reply, err := s.directorCall(st, proto.GetJobFiles{JobName: m.JobName})
	if err != nil {
		return nil, err
	}
	switch r := reply.(type) {
	case proto.JobFiles:
		var paths []string
		for _, e := range r.Entries {
			paths = append(paths, e.Path)
		}
		return proto.FileList{Paths: paths}, nil
	case proto.Ack:
		return nil, errors.New(r.Err)
	default:
		return nil, fmt.Errorf("server: unexpected reply %T", reply)
	}
}

// lookupEntry resolves one file's entry from the director's metadata for
// the job's latest run, through the connection's job-files cache.
func (s *Server) lookupEntry(st *connState, jobName, path string) (proto.FileEntry, error) {
	jfc := &st.jfc
	if jfc.job != jobName || jfc.entries == nil {
		reply, err := s.directorCall(st, proto.GetJobFiles{JobName: jobName})
		if err != nil {
			return proto.FileEntry{}, err
		}
		files, ok := reply.(proto.JobFiles)
		if !ok {
			if ack, is := reply.(proto.Ack); is {
				return proto.FileEntry{}, errors.New(ack.Err)
			}
			return proto.FileEntry{}, fmt.Errorf("server: unexpected reply %T", reply)
		}
		byPath := make(map[string]proto.FileEntry, len(files.Entries))
		for _, e := range files.Entries {
			byPath[e.Path] = e
		}
		jfc.job, jfc.entries = jobName, byPath
	}
	if e, ok := jfc.entries[path]; ok {
		return e, nil
	}
	return proto.FileEntry{}, fmt.Errorf("server: %s not found in job %q", path, jobName)
}

// restoreMeta answers a metadata-only restore request: the entry (chunk
// fingerprints included) with no data stream, which is all verify needs.
func (s *Server) restoreMeta(m proto.RestoreMeta, st *connState) (any, error) {
	e, err := s.lookupEntry(st, m.JobName, m.Path)
	if err != nil {
		return nil, err
	}
	return proto.RestoreBegin{Entry: e}, nil
}

// streamRestore serves one chunk-streamed restore exchange on conn (see
// the internal/proto package comment for the wire sequence). The file is
// never materialised: chunks are read through the LPC at chunk
// granularity — the restorer is internally synchronised, so concurrent
// restores and backups interleave — and shipped in bounded batches with
// at most the granted window unacknowledged. The handler owns the
// connection's send side for the duration; inbound acks arrive through
// frames, fed by the connection's reader goroutine. The returned error is connection-fatal
// (the peer is gone); failures before the stream opens are answered with
// an Ack and failures mid-stream are reported in-band via
// RestoreDone.Err, leaving the connection usable for the next request.
func (s *Server) streamRestore(conn *proto.Conn, frames <-chan frame, st *connState, m proto.RestoreFile) error {
	e, err := s.lookupEntry(st, m.JobName, m.Path)
	if err != nil {
		return conn.Send(proto.Ack{OK: false, Err: err.Error()})
	}
	// Resume support: skip the chunks the client already holds verified
	// on disk and stream the tail. The client re-checks that the entry is
	// unchanged before trusting its partial file.
	if m.StartChunk > uint64(len(e.Chunks)) {
		return conn.Send(proto.Ack{OK: false, Err: fmt.Sprintf(
			"server: resume offset %d beyond %d chunks of %s", m.StartChunk, len(e.Chunks), e.Path)})
	}
	batch := clampRestore(m.BatchChunks, restoreBatchChunks, maxRestoreBatchChunks)
	window := clampRestore(m.Window, restoreWindow, maxRestoreWindow)
	if err := conn.Send(proto.RestoreBegin{Entry: e, BatchChunks: batch, Window: window, StartChunk: m.StartChunk}); err != nil {
		return err
	}
	mRestoreStreams.Inc()

	var (
		seq       uint64 // next batch sequence number
		acked     uint64 // acks consumed so far
		sentBytes int64
		chunks    int64
	)
	recvAck := func() error {
		f, ok := <-frames
		if !ok {
			return errors.New("server: connection closed during restore stream")
		}
		ack, ok := f.msg.(proto.RestoreAck)
		if !ok {
			// Connection-fatal: the handler's exit path gives back the
			// receive buffers of the frames still queued.
			return fmt.Errorf("server: unexpected %T during restore stream", f.msg)
		}
		if ack.Seq != acked {
			return fmt.Errorf("server: restore ack for batch %d, expected %d", ack.Seq, acked)
		}
		acked++
		return nil
	}
	// abort reports a mid-stream failure in-band, then drains the acks
	// for batches already sent so the connection returns to the request
	// loop in a known state.
	abort := func(streamErr error) error {
		if err := conn.Send(proto.RestoreDone{Err: streamErr.Error()}); err != nil {
			return err
		}
		for acked < seq {
			if err := recvAck(); err != nil {
				return err
			}
		}
		return nil
	}

	// The batch accumulates chunk slices aliasing the repository's
	// storage (mmap or cached container): nothing is copied until Send
	// encodes the frame, so server-side restore memory is one batch of
	// references plus the pooled encode buffer.
	data := make([][]byte, 0, batch)
	var dataBytes int
	flush := func() error {
		if len(data) == 0 {
			return nil
		}
		// The stream is out of restore credits: the client's window is
		// full and the server blocks until an ack arrives. A high stall
		// count against restore throughput says the window (or the
		// client's ack cadence) is the bottleneck, not the chunk reads.
		if seq-acked >= uint64(window) {
			mRestoreStalls.Inc()
		}
		for seq-acked >= uint64(window) {
			if err := recvAck(); err != nil {
				return err
			}
		}
		if err := conn.Send(proto.RestoreChunkBatch{Seq: seq, Data: data}); err != nil {
			return err
		}
		seq++
		chunks += int64(len(data))
		mBytesOut.Add(int64(dataBytes))
		data, dataBytes = data[:0], 0
		return nil
	}
	for _, f := range e.Chunks[m.StartChunk:] {
		chunk, err := s.restorer.Chunk(f)
		if err != nil {
			return abort(fmt.Errorf("server: restoring %s: %w", e.Path, err))
		}
		data = append(data, chunk)
		dataBytes += len(chunk)
		sentBytes += int64(len(chunk))
		if len(data) >= batch || dataBytes >= maxRestoreBatchBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for acked < seq {
		if err := recvAck(); err != nil {
			return err
		}
	}
	return conn.Send(proto.RestoreDone{Chunks: chunks, Bytes: sentBytes})
}
