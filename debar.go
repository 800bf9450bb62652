// Package debar is a from-scratch Go implementation of DEBAR, the
// scalable high-performance de-duplication storage system for backup and
// archiving of Yang, Jiang, Feng and Niu (TR-UNL-CSE-2009-0004 / IPPS'10),
// together with the DDFS baseline it is evaluated against.
//
// The building blocks live under internal/ (chunker, fp, diskindex,
// prefilter, indexcache, chunklog, container, lpc, bloom, tpds, cluster,
// ddfs, disksim, workload, overflow, experiments, director, server,
// client); this package offers the high-level entry points a downstream
// user needs:
//
//   - System: an in-process DEBAR deployment (director + backup servers
//     over loopback TCP) for embedding and experimentation, always on the
//     durable store engine: in ServerConfig.DataDir, or in a temporary
//     directory that System.Close removes;
//   - re-exported client for talking to any DEBAR deployment;
//   - the experiments API regenerating the paper's tables and figures.
//
// # Inline vs out-of-line dedup
//
// DEBAR's defining design choice is out-of-line (post-process) dedup:
// during a backup window the server answers fingerprint batches from
// cheap in-memory state only — the per-session preliminary filter and
// the chunk log's set of logged fingerprints — and defers every disk-index
// lookup to de-duplication Phase II (SIL/SIU), which runs after the
// window against the chunk-log WAL. That keeps ingest latency flat but
// ships cross-generation duplicates over the wire before Phase II
// discards them.
//
// The inline fast path closes that gap where it is cheap to do so: when
// a session negotiates proto.CapInlineDedup (on by default; opt out via
// the client Options.DisableInlineDedup or the server's matching config
// knob / -no-inline-dedup flag), the server additionally probes the
// restore-path LPC and disk index while answering an FPBatch, and
// returns an explicit "duplicate — don't send" verdict for chunks
// already sitting in committed containers. The client then skips
// shipping those bytes entirely; the server registers the reference
// without a WAL append. Index entries only ever describe durably
// committed containers, so a skip verdict never points at bytes a crash
// could lose, and an index miss (false negative) just falls through to
// the out-of-line pass — the store converges on byte-identical contents
// with the fast path on or off, proven by the equivalence tests in
// internal/server. Capability negotiation intersects what both sides
// offer, so either side disabling the capability yields the classic
// out-of-line protocol.
//
// # Fault tolerance
//
// Every network operation is bounded and every client operation retries
// transient failures with resume, so one flaky link or full disk cannot
// wedge a backup window. The failure-mode matrix:
//
//	Failure                      Detection                Behaviour
//	-------                      ---------                ---------
//	Cut link mid-backup          read/write error         Client retries with backoff; the dead session's chunks
//	                                                      are chunk-log records (stored by the next dedup-2
//	                                                      pass), and the log's logged set answers their re-offer
//	                                                      with "don't transfer", so only chunks that never
//	                                                      arrived are re-transferred.
//	Cut link mid-restore         read/write error         Client retries and resumes the interrupted file
//	                                                      mid-stream (RestoreFile.StartChunk); the partial temp
//	                                                      file is kept across attempts and verified chunk by
//	                                                      chunk, or discarded if the server state changed.
//	Half-open link (SIGKILL,     per-I/O deadline          Client: IOTimeout fails the stalled call, then normal
//	NAT timeout — no FIN)        (progress-based)          retry. Server: IdleTimeout reaps the silent connection
//	                                                      and reclaims its sessions (same path as a cut).
//	Server down at dial          DialTimeout              Retries with exponential backoff + jitter until the
//	                                                      retry budget (Retries) is spent.
//	Disk full / media error      failed durable write     Store latches read-only: new writes and dedup-2 get a
//	on the server                or WAL fsync             typed in-band refusal (proto.IsReadOnly), and so does
//	                                                      BackupEnd of a run with a refused chunk batch or an
//	                                                      unsynced chunk; restores and verifies keep serving.
//	                                                      Cleared by fixing the medium and restarting (normal
//	                                                      crash recovery applies).
//	Crash or failure between     chunk-log WAL replay     A pass is one transaction over the chunk log: it
//	dedup-2 stages               on reopen                consumes its records only after SIU and checkpoint,
//	                                                      so a failed or killed pass leaves them pending for
//	                                                      the next one, which converges (re-stored duplicates
//	                                                      waste space but never corrupt restores).
//	Backup aborted before        run never marked          The director serves only completed runs (EndRun) as
//	completion                   complete                  restore sources or filtering fingerprints, so a
//	                                                      half-landed file index is never trusted.
//	Director crash after         metastore journal        EndRun fsyncs the run's completion, and with it the
//	BackupDone                   replay on restart        run's file indexes, before the server sends BackupDone,
//	                                                      so every acknowledged run is restorable after restart.
//	                                                      A failed fsync leaves the run incomplete and the server
//	                                                      refuses BackupEnd instead.
//	Director journal append      metastore append error   The director opens no run whose opening it could not
//	fails at NewRun                                       journal and refuses the NewRun; the server refuses the
//	                                                      BackupStart, so no backup is acknowledged against a
//	                                                      run a restart would forget.
//	Director unreachable         control-call timeout     Server and director control calls retry transiently;
//	                                                      persistent failure fails the operation loudly.
//
// The knobs follow one convention everywhere: zero selects the
// documented default, negative disables. Client: DialTimeout, IOTimeout,
// Retries, RetryBackoff. Server (ServerConfig): IdleTimeout,
// WriteTimeout, ControlTimeout, ControlRetries. Director: IdleTimeout,
// ControlTimeout, Dedup2Timeout, Retries. The internal/faultproxy chaos
// proxy and the chaos suite (chaos_test.go) exercise the whole matrix
// under -race in CI.
//
// # Observability
//
// Every daemon instruments its hot paths through internal/obs — a
// dependency-free, allocation-cheap metrics package (atomic counters,
// gauges and fixed-bucket histograms in a process-global registry) —
// and logs structured events through log/slog. The shared CLI
// convention across debar-server, debar-director and debar-client:
//
//   - -log-level debug|info|warn|error and -log-json select the slog
//     handler (Debug: routine lifecycle; Info: dedup-2 pass summaries;
//     Warn: reclaims, retries, stage failures;
//     Error: the store latching read-only);
//   - -debug-addr starts an opt-in HTTP listener serving /metrics
//     (Prometheus text format), /metrics.json (the obs snapshot) and
//     net/http/pprof under /debug/pprof/. Off by default: with the
//     listener disabled the instrumentation cost is a few atomic adds
//     per batch.
//
// Metric names are prefixed by layer: server_* (sessions, prefilter
// hits/misses, chunk ingest, dedup-2 pass latencies, restore streams),
// store_* (WAL append latencies, each durable log's fsyncs and their
// latencies, segment rotations, index lookups), dedup2_pass_* (the
// dedup-2 pass's SIL scan, packing and container-append split),
// director_* (run lifecycle, dedup-2 trigger outcomes, control retries)
// and client_* (retries, resumes, pipeline window occupancy). The
// storage-engine series are catalogued in internal/store/README.md. The benchmark (bench/) turns
// these series into per-layer metrics of a whole backup cycle:
// go run ./bench, whose --trace 1 runs report them (bench/README.md).
//
// # Static analysis
//
// The invariants above — fsync-before-Close on the durable write path,
// mutex-guarded shared state, all network I/O behind the framed
// deadline-aware transport, the layer_subsystem_name metric grammar, no
// silently discarded storage errors — are mechanically enforced by
// tools/debarvet, a vet-style analyzer suite built on the standard
// library alone. It runs standalone:
//
//	go run ./tools/debarvet ./...
//
// or through cmd/go's incremental vet cache:
//
//	go build -o bin/debarvet ./tools/debarvet
//	go vet -vettool=$PWD/bin/debarvet ./...
//
// CI's lint job runs the vettool form over the whole tree and fails on
// any diagnostic. Shared fields declare their lock with a
// "// guarded by mu" comment, caller-holds contracts with a
// "debarvet:holds mu" doc line, and provably-safe findings are silenced
// by a "//debarvet:ignore <analyzer> -- <reason>" directive whose reason
// is mandatory. The analyzer catalogue and the full annotation grammar
// are documented in tools/debarvet/README.md.
package debar

import (
	"fmt"
	"os"
	"path/filepath"

	"debar/internal/client"
	"debar/internal/director"
	"debar/internal/metastore"
	"debar/internal/server"
)

// Client is a DEBAR backup client (see internal/client). Backup runs a
// pipelined, windowed data path; the Client.Options fields BatchSize,
// Window and Workers tune fingerprints per batch, batches in flight, and
// the SHA-1 worker pool. Restore streams chunk batches with
// receiver-driven flow control, tuned by Options.RestoreBatchSize and
// Options.RestoreWindow. Zero values select the defaults documented in
// internal/client.
type Client = client.Client

// NewClient returns a backup client bound to a backup server address.
func NewClient(serverAddr, name string) *Client { return client.New(serverAddr, name) }

// ServerConfig sizes a backup server.
type ServerConfig = server.Config

// System is an in-process DEBAR deployment: one director and n backup
// servers listening on loopback TCP.
type System struct {
	Director     *director.Director
	DirectorAddr string
	Servers      []*server.Server
	ServerAddrs  []string
	meta         *metastore.Store
	tempDir      string // non-empty: created by StartLocal, removed by Close
}

// StartLocal boots a director and n backup servers on 127.0.0.1, all on
// durable storage under one data directory: the director journals its
// metadata under <DataDir>/director and each server gets its own storage
// engine under <DataDir>/server-<i>, so a deployment restarted over the
// same directory recovers its backups. With cfg.DataDir empty the
// deployment runs in a fresh temporary directory that Close removes.
func StartLocal(n int, cfg ServerConfig) (*System, error) {
	if n <= 0 {
		return nil, fmt.Errorf("debar: need at least one backup server, got %d", n)
	}
	sys := &System{}
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "debar-local-*")
		if err != nil {
			return nil, fmt.Errorf("debar: %w", err)
		}
		sys.tempDir, cfg.DataDir = dir, dir
	}
	dirDir := filepath.Join(cfg.DataDir, "director")
	if err := os.MkdirAll(dirDir, 0o755); err != nil {
		sys.Close()
		return nil, fmt.Errorf("debar: %w", err)
	}
	ms, err := metastore.Open(filepath.Join(dirDir, "meta.journal"))
	if err != nil {
		sys.Close()
		return nil, err
	}
	sys.meta = ms
	if sys.Director, err = director.NewDurable(ms); err != nil {
		sys.Close()
		return nil, err
	}
	addr, err := sys.Director.Serve("127.0.0.1:0")
	if err != nil {
		sys.Close()
		return nil, err
	}
	sys.DirectorAddr = addr
	for i := 0; i < n; i++ {
		c := cfg
		c.DirectorAddr = addr
		c.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("server-%d", i))
		srv, err := server.New(c)
		if err != nil {
			sys.Close()
			return nil, err
		}
		saddr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.Servers = append(sys.Servers, srv)
		sys.ServerAddrs = append(sys.ServerAddrs, saddr)
	}
	return sys, nil
}

// AssignClient returns a client bound to the least-loaded backup server,
// as the director's job scheduler would assign it (§3.1).
func (s *System) AssignClient(name string) (*Client, error) {
	addr, err := s.Director.AssignServer()
	if err != nil {
		return nil, err
	}
	return client.New(addr, name), nil
}

// RunDedup2 triggers de-duplication Phase II on every backup server.
func (s *System) RunDedup2() error { return s.Director.TriggerDedup2() }

// Close shuts the deployment down and removes the temporary data
// directory StartLocal created, if any.
func (s *System) Close() {
	for _, srv := range s.Servers {
		srv.Close()
	}
	if s.Director != nil {
		s.Director.Close()
	}
	if s.meta != nil {
		s.meta.Close()
	}
	if s.tempDir != "" {
		os.RemoveAll(s.tempDir)
	}
}
