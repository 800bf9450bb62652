// Package client implements the DEBAR Backup Engine (paper §3.2): it
// reads files from the job dataset, anchors them into variable-sized
// chunks with CDC, computes SHA-1 fingerprints, exchanges fingerprints
// with the backup server's preliminary filter, transfers only the chunks
// the server asks for, and sends file metadata and indices. Restore
// retrieves file indices and chunks back from the server.
//
// # Pipelined backup
//
// Backup is fully pipelined rather than stop-and-wait: a reader
// goroutine anchors files into recycled chunk buffers, a pool of Workers
// goroutines computes SHA-1 fingerprints in parallel, and a windowed
// dispatcher keeps up to Window fingerprint batches (of BatchSize
// fingerprints each) in flight on one connection, with decoupled send
// and receive goroutines. Disk reads, hashing and network round-trips
// overlap; replies come back in request order, and chunk batches get
// none unless refused.
// See pipeline.go for the stage layout. Every knob lives on the Options
// struct (construct via DefaultOptions or mutate Client.Options before
// the first operation; NewWithOptions validates eagerly):
//
//   - Options.BatchSize: fingerprints per FPBatch (default 256, as in
//     the paper's batch granularity of dedup-1);
//   - Options.Window: FPBatches in flight before the dispatcher blocks
//     (default 4 — enough to hide one round-trip at loopback and LAN
//     latencies without buffering unbounded chunk data);
//   - Options.Workers: fingerprinting goroutines (default GOMAXPROCS,
//     capped at 8 — SHA-1 saturates the NIC long before that on modern
//     cores).
//
// Memory in flight is bounded by roughly Window × BatchSize × the
// expected chunk size.
//
// # Inline dedup
//
// The client offers proto.CapInlineDedup in BackupStart (unless
// Options.DisableInlineDedup); against a capable server, confirmed
// duplicates come back as VerdictSkipDuplicate and their chunk bytes are
// never shipped — the pipeline records the fingerprints in the file
// entry and recycles the buffers. Against a server with inline dedup
// disabled (or with the knob off) the server skips only what its
// preliminary filter and chunk log already hold.
//
// # Streaming restore
//
// Restore mirrors the backup pipeline in reverse: the server streams
// chunk batches with receiver-driven flow control and the client appends
// them to the destination file as they arrive (see the internal/proto
// package comment for the wire exchange), so files of any size restore
// with bounded memory on both ends. Each chunk is re-fingerprinted
// against the file index on receipt — corruption in transit or in the
// chunk store surfaces as an error, never as silently wrong bytes. The
// restore knobs:
//
//   - Options.RestoreBatchSize: chunks per restore batch requested from
//     the server (default 256, like BatchSize; the server additionally
//     cuts batches at a byte budget);
//   - Options.RestoreWindow: restore batches the server may keep in
//     flight before waiting for the client's acknowledgements (default
//     4, like Window).
//
// # Fault tolerance
//
// Every connection is bounded (Options.DialTimeout for establishment,
// Options.IOTimeout as a per-I/O deadline — a stalled peer fails fast, a
// slow transfer making progress does not) and every operation retries
// transient network failures with exponential backoff and jitter under a
// retry budget (Options.Retries, Options.RetryBackoff). The retries are efficient resumes, not
// blind re-runs: a retried backup re-offers fingerprints (idempotent on
// the server, which answers "don't transfer" for every chunk already in
// its chunk log) and only re-ships chunks that never landed; a retried restore resumes mid-file
// from the last verified chunk via the protocol's resume offset. Errors
// the server reported in-band (a refused request, e.g. a store gone
// read-only after ENOSPC) are permanent and never retried — see
// proto.RemoteError and proto.IsReadOnly.
package client

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"debar/internal/obs"
	"debar/internal/proto"
	"debar/internal/retry"
)

// Client-side fault-tolerance and pipeline metrics. Retries count
// re-attempts after transient connection failures (not the first try);
// resumes count restores that continued mid-file instead of starting
// over. Window occupancy is sampled at each slot acquire: a
// distribution pinned at Window means the round-trip, not the client,
// paces the backup.
var (
	mBackupRetries   = obs.GetCounter("client_backup_retries_total")
	mRestoreRetries  = obs.GetCounter("client_restore_retries_total")
	mRestoreResumes  = obs.GetCounter("client_restore_resumes_total")
	mWindowOccupancy = obs.GetHistogram("client_window_occupancy", obs.CountBuckets)
	mSkippedChunks   = obs.GetCounter("client_backup_skipped_chunks_total")
	mSkippedBytes    = obs.GetCounter("client_backup_skipped_bytes_total")
)

// defaultWindow is the default number of FPBatches kept in flight.
const defaultWindow = 4

// defaultWorkers sizes the fingerprint worker pool when Workers is 0.
func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// defaultIOTimeout is the per-I/O read/write deadline when IOTimeout is 0.
const defaultIOTimeout = 2 * time.Minute

// defaultRetries is the transient-failure retry budget when Retries is 0.
const defaultRetries = 3

// Client is a backup client bound to one backup server. Every tuning
// knob lives on the exported Options field; mutate it before the first
// operation (Backup, Restore and Verify validate it at entry).
type Client struct {
	ServerAddr string
	Name       string
	Options    Options
}

// logger resolves the client's structured logger.
func (c *Client) logger() *slog.Logger {
	if c.Options.Logger != nil {
		return c.Options.Logger
	}
	return slog.Default()
}

// dial opens a bounded connection to the backup server.
func (c *Client) dial() (*proto.Conn, error) {
	conn, err := proto.DialTimeout(c.ServerAddr, c.Options.DialTimeout)
	if err != nil {
		return nil, err
	}
	to := c.ioTimeout()
	conn.SetTimeouts(to, to)
	return conn, nil
}

// ioTimeout resolves Options.IOTimeout (negative: no deadline).
func (c *Client) ioTimeout() time.Duration {
	if c.Options.IOTimeout == 0 {
		return defaultIOTimeout
	}
	return c.Options.IOTimeout
}

// retryPolicy resolves the client's retry knobs.
func (c *Client) retryPolicy() retry.Policy {
	r := c.Options.Retries
	if r == 0 {
		r = defaultRetries
	} else if r < 0 {
		r = 0
	}
	return retry.Policy{Attempts: r + 1, Base: c.Options.RetryBackoff}
}

// caps is the capability set the client offers in BackupStart.
func (c *Client) caps() proto.Caps {
	if c.Options.DisableInlineDedup {
		return 0
	}
	return proto.CapInlineDedup
}

// New returns a client for the given backup server with default options.
func New(serverAddr, name string) *Client {
	return &Client{ServerAddr: serverAddr, Name: name, Options: DefaultOptions()}
}

// NewWithOptions returns a client with the given options, validating
// them eagerly so a misconfiguration fails at construction rather than
// on the first operation.
func NewWithOptions(serverAddr, name string, o Options) (*Client, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return &Client{ServerAddr: serverAddr, Name: name, Options: o}, nil
}

// BackupStats summarises one backup run. InlineSkippedBytes counts
// logical bytes the inline dedup fast path confirmed as duplicates
// before transfer — data that never crossed the wire.
type BackupStats struct {
	Files              int
	LogicalBytes       int64
	TransferredBytes   int64
	NewFingerprints    int64
	InlineSkippedBytes int64
}

// Backup walks dir and backs up every regular file under it as job
// jobName, retrying transient connection failures with backoff. A retry
// opens a fresh session (and run) and re-offers every fingerprint; the
// server answers "don't transfer" for chunks that already landed — they
// are records in its chunk log, whatever became of the interrupted
// session — so only the missing tail of the data moves again.
func (c *Client) Backup(jobName, dir string) (BackupStats, error) {
	var stats BackupStats
	if err := c.Options.Validate(); err != nil {
		return stats, err
	}
	pol := c.retryPolicy()
	var err error
	for attempt := 0; ; attempt++ {
		stats, err = c.backupOnce(jobName, dir)
		if err == nil || !retry.Transient(err) || attempt >= pol.Attempts-1 {
			return stats, err
		}
		mBackupRetries.Inc()
		c.logger().Warn("backup attempt failed, retrying",
			"job", jobName, "attempt", attempt+1, "err", err)
		time.Sleep(pol.Backoff(attempt))
	}
}

// backupOnce is one backup attempt over one connection.
func (c *Client) backupOnce(jobName, dir string) (BackupStats, error) {
	var stats BackupStats
	conn, err := c.dial()
	if err != nil {
		return stats, err
	}
	defer conn.Close()

	sess, err := c.start(conn, jobName)
	if err != nil {
		return stats, err
	}

	var paths []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("client: walking %s: %w", dir, err)
	}
	sort.Strings(paths)

	files, done, err := c.runPipeline(conn, sess, dir, paths)
	stats.Files = files
	if err != nil {
		return stats, err
	}
	stats.LogicalBytes = done.LogicalBytes
	stats.TransferredBytes = done.TransferredBytes
	stats.NewFingerprints = done.NewFingerprints
	stats.InlineSkippedBytes = done.InlineSkippedBytes
	return stats, nil
}

func (c *Client) start(conn *proto.Conn, jobName string) (uint64, error) {
	if err := conn.Send(proto.BackupStart{
		JobName: jobName,
		Client:  c.Name,
		Version: proto.ProtocolVersion,
		Caps:    c.caps(),
	}); err != nil {
		return 0, err
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, err
	}
	switch m := msg.(type) {
	case proto.BackupStartOK:
		// An older server acknowledges every ChunkBatch, and this client
		// would take that Ack for the reply to its next request; refuse
		// the server before sending any data.
		if m.Version < proto.ProtocolVersion {
			return 0, fmt.Errorf("client: server protocol version %d unsupported, need %d",
				m.Version, proto.ProtocolVersion)
		}
		// The negotiated caps (m.Caps & c.caps()) need no client-side
		// branch: the pipeline obeys whatever verdicts arrive. The offer
		// matters server-side — it licenses index-backed skip verdicts.
		return m.SessionID, nil
	case proto.Ack:
		return 0, fmt.Errorf("client: BackupStart refused: %w", proto.AckError(m))
	default:
		return 0, fmt.Errorf("client: unexpected BackupStart reply %T", msg)
	}
}

func (c *Client) batch() int {
	if c.Options.BatchSize <= 0 {
		return 256
	}
	return c.Options.BatchSize
}

// Restore retrieves every file of jobName's latest run into destDir,
// streaming each file's chunk batches straight to disk (see restore.go).
// Transient connection failures are retried with backoff; a retry redials,
// skips the files already completed, and resumes the interrupted file
// mid-stream from its last verified chunk (the partial temp file and its
// verified prefix survive across attempts).
func (c *Client) Restore(jobName, destDir string) (int, error) {
	if err := c.Options.Validate(); err != nil {
		return 0, err
	}
	pol := c.retryPolicy()
	var (
		restored int
		done     = make(map[string]bool) // paths fully restored so far
		res      fileResume              // partial-file state carried across attempts
	)
	defer res.abandon()
	for attempt := 0; ; attempt++ {
		err := c.restoreAttempt(jobName, destDir, done, &restored, &res)
		if err == nil {
			return restored, nil
		}
		if errors.Is(err, errResumeInvalid) {
			// The file changed between attempts or the server declined the
			// resume offset: drop the partial state and restore that file
			// from scratch. Still consumes the retry budget.
			c.logger().Warn("restore resume declined, restarting file", "job", jobName, "err", err)
			res.abandon()
		} else if !retry.Transient(err) {
			return restored, err
		}
		if attempt >= pol.Attempts-1 {
			return restored, err
		}
		mRestoreRetries.Inc()
		c.logger().Warn("restore attempt failed, retrying",
			"job", jobName, "attempt", attempt+1, "err", err)
		time.Sleep(pol.Backoff(attempt))
	}
}

// restoreAttempt is one restore attempt over one connection, skipping
// files recorded in done and resuming res if it holds partial state.
func (c *Client) restoreAttempt(jobName, destDir string, done map[string]bool, restored *int, res *fileResume) error {
	conn, err := c.dial()
	if err != nil {
		return err
	}
	defer conn.Close()

	if err := conn.Send(proto.ListFiles{JobName: jobName}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return err
	}
	list, ok := msg.(proto.FileList)
	if !ok {
		if ack, is := msg.(proto.Ack); is {
			return fmt.Errorf("client: list: %w", proto.AckError(ack))
		}
		return fmt.Errorf("client: unexpected ListFiles reply %T", msg)
	}

	for _, path := range list.Paths {
		if done[path] {
			continue
		}
		if err := c.restoreOne(conn, jobName, path, destDir, res); err != nil {
			return err
		}
		done[path] = true
		*restored++
	}
	return nil
}
