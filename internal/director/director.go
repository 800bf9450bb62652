// Package director implements DEBAR's dedicated control centre (paper
// §3.1): a job scheduler that assigns backup jobs to backup servers for
// load balancing, and a metadata manager holding each job's chain of
// runs and their file indices. A job is just the name its runs are
// filed under. The director also monitors the backup servers and
// initiates dedup-2 jobs.
//
// The metadata lives in a journal (internal/metastore) of the control
// frames the director applied: a NewRunOK when a run opens, the
// PutFileIndex of each file and the EndRun that completes the run, each
// under its job's name and behind a version stamp. One function, apply,
// changes the metadata, both for a live call and for a replayed record.
package director

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"debar/internal/fp"
	"debar/internal/metastore"
	"debar/internal/obs"
	"debar/internal/proto"
	"debar/internal/retry"
)

// Control-plane metrics: run lifecycle, dedup-2 trigger outcomes and
// the retry traffic behind them.
var (
	mRunsStarted    = obs.GetCounter("director_runs_started_total")
	mRunsCompleted  = obs.GetCounter("director_runs_completed_total")
	mServersReg     = obs.GetCounter("director_servers_registered_total")
	mDedup2Triggers = obs.GetCounter("director_dedup2_triggers_total")
	mDedup2Failures = obs.GetCounter("director_dedup2_trigger_failures_total")
	mControlRetries = obs.GetCounter("director_control_retries_total")
)

// Control-plane timeout defaults. Dedup-2 is the outlier: the server
// sends nothing while it drains chunk logs and rewrites indexes, so the
// reply wait gets its own much longer bound.
const (
	defaultControlTimeout = 10 * time.Second
	defaultDedup2Timeout  = 15 * time.Minute
	defaultIdleTimeout    = 5 * time.Minute
	defaultRetries        = 2
)

// resolveTimeout maps the knob convention (0 = default, negative =
// disabled) onto a concrete duration.
func resolveTimeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// run is one execution of a job. complete is set when the backup server
// reports the run's BackupEnd: every chunk the server asked for arrived.
// Incomplete runs (client vanished mid-backup) are never served as a
// restore source or as filtering fingerprints — their file indexes can
// reference chunks that never reached the server.
type run struct {
	id       uint64
	complete bool
	files    []proto.FileEntry
}

// serverInfo tracks a registered backup server.
type serverInfo struct {
	id   int
	addr string
	load int64 // assigned jobs, for least-loaded scheduling
}

// Director is the control centre. All exported methods are safe for
// concurrent use. The timeout/retry knobs follow the repo convention —
// zero selects the default, negative disables — and must be set before
// Serve or the first outbound call.
type Director struct {
	// ControlTimeout bounds outbound control dials and each control-call
	// read/write (default 10s).
	ControlTimeout time.Duration
	// Dedup2Timeout bounds the wait for a server's Dedup2Done reply —
	// dedup-2 streams nothing while it works, so this is the maximum
	// tolerated pass duration (default 15m).
	Dedup2Timeout time.Duration
	// Retries is the transient-failure retry budget for outbound control
	// calls such as the dedup-2 trigger (default 2).
	Retries int
	// IdleTimeout reaps accepted connections whose peer goes silent
	// (default 5m). A backup server keeps one connection per client
	// connection it serves; when an idle one is reaped, the server's
	// next call fails on it and its retry redials.
	IdleTimeout time.Duration

	mu       sync.Mutex
	runs     map[string][]*run // job → chronological runs (the job chain)
	nextRun  uint64
	servers  []*serverInfo
	ln       net.Listener
	conns    map[*proto.Conn]struct{} // live handler connections
	handlers sync.WaitGroup
	closed   bool
	slog     *slog.Logger
	meta     *metastore.Store // the journal; owned by NewDurable's caller
}

// journalVersion is the journal format this build writes and reads.
// Version 1 journaled gob-encoded events and had no stamp; version 2
// journals each mutation as its binary control frame (proto.Marshal).
const journalVersion = 2

// stampJob names the journal's first record, the version stamp, whose
// payload is the format version as a big-endian uint32.
const stampJob = "debar.director.journal"

// VersionError reports a journal in a format this build does not read.
type VersionError struct{ Found, Want int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("journal format version %d, this build reads version %d", e.Found, e.Want)
}

// checkStamp accepts the journal's first record if it is the current
// version stamp. A journal from before the stamp starts with a gob
// event, so any other first record means version 1.
func checkStamp(job string, rec []byte) error {
	found := 1
	if job == stampJob && len(rec) == 4 {
		found = int(binary.BigEndian.Uint32(rec))
	}
	if found != journalVersion {
		return &VersionError{Found: found, Want: journalVersion}
	}
	return nil
}

// NewDurable returns a director whose runs and file indexes persist in
// the metastore's journal: the journal is replayed on construction, and
// an empty one gets the version stamp. The caller retains ownership of
// ms and closes it after the director shuts down. A journal in another
// format is refused with a *VersionError and left as it is.
func NewDurable(ms *metastore.Store) (*Director, error) {
	d := &Director{
		runs:  make(map[string][]*run),
		conns: make(map[*proto.Conn]struct{}),
		slog:  slog.Default(),
		meta:  ms,
	}
	empty := true
	err := ms.Replay(func(job string, rec []byte) error {
		if empty {
			empty = false
			return checkStamp(job, rec)
		}
		msg, err := proto.Unmarshal(rec)
		if err != nil {
			return fmt.Errorf("job %q: %w", job, err)
		}
		return d.apply(job, msg)
	})
	if err != nil {
		return nil, fmt.Errorf("director: replaying journal: %w", err)
	}
	// The stamp needs no sync of its own: the sync that makes any later
	// record durable covers it, and a crash before that sync loses the
	// records after it too, leaving an empty journal to stamp again.
	if empty {
		if err := ms.Append(stampJob, binary.BigEndian.AppendUint32(nil, journalVersion)); err != nil {
			return nil, fmt.Errorf("director: stamping journal: %w", err)
		}
	}
	return d, nil
}

// apply makes one mutation of a job's metadata: a run opens (NewRunOK),
// a file index joins a run (PutFileIndex) or a run completes (EndRun).
// Live calls apply a frame after journaling it and NewDurable applies
// every replayed one, so a record that does not fit the state — a run
// out of order, an unknown run, another message type — fails replay.
// Callers hold d.mu (or are replaying before the director is shared).
func (d *Director) apply(job string, msg any) error {
	switch m := msg.(type) {
	case proto.NewRunOK:
		if m.RunID <= d.nextRun {
			return fmt.Errorf("director: run %d of job %q opened after run %d", m.RunID, job, d.nextRun)
		}
		d.nextRun = m.RunID
		d.runs[job] = append(d.runs[job], &run{id: m.RunID})
	case proto.PutFileIndex:
		r, err := d.findRun(job, m.RunID)
		if err != nil {
			return err
		}
		r.files = append(r.files, m.Entry)
	case proto.EndRun:
		r, err := d.findRun(job, m.RunID)
		if err != nil {
			return err
		}
		r.complete = true
	default:
		return fmt.Errorf("director: %T of job %q is not a journal record", msg, job)
	}
	return nil
}

// commit journals msg under job, then applies it. A completion is
// fsynced before it is applied (the sync also covers the run's earlier
// records). It runs under d.mu by design: replay order per job must
// match mutation order, and d.mu is what serialises mutations. The cost
// — control-plane RPCs occasionally waiting out a journal fsync — is
// accepted; the data path never goes through the director.
func (d *Director) commit(job string, msg any) error {
	rec, err := proto.Marshal(msg)
	if err != nil {
		return fmt.Errorf("director: %w", err)
	}
	if err := d.meta.Append(job, rec); err != nil {
		return err
	}
	if _, end := msg.(proto.EndRun); end {
		if err := d.meta.Sync(); err != nil {
			return err
		}
	}
	return d.apply(job, msg)
}

// SetLogger installs a structured logger; nil keeps the current one.
func (d *Director) SetLogger(l *slog.Logger) {
	if l != nil {
		d.slog = l
	}
}

// RegisterServer records a backup server and returns its ID.
func (d *Director) RegisterServer(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := len(d.servers)
	d.servers = append(d.servers, &serverInfo{id: id, addr: addr})
	mServersReg.Inc()
	d.slog.Debug("backup server registered", "server", id, "addr", addr)
	return id
}

// Servers lists registered backup server addresses.
func (d *Director) Servers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.servers))
	for i, s := range d.servers {
		out[i] = s.addr
	}
	return out
}

// AssignServer picks the least-loaded backup server for a job (§3.1 load
// balancing) and accounts the assignment.
func (d *Director) AssignServer() (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.servers) == 0 {
		return "", errors.New("director: no backup servers registered")
	}
	best := d.servers[0]
	for _, s := range d.servers[1:] {
		if s.load < best.load {
			best = s
		}
	}
	best.load++
	return best.addr, nil
}

// NewRun opens a run of a job and returns its ID. The run exists only
// once it is journaled: if the append fails, NewRun opens nothing and
// returns 0, which is no run's ID. The client name is not recorded.
func (d *Director) NewRun(jobName, _ string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextRun + 1
	if err := d.commit(jobName, proto.NewRunOK{RunID: id}); err != nil {
		// The record may have reached the journal (an append can fail in
		// its batched fsync), so the ID is never handed out again.
		d.nextRun = id
		d.slog.Warn("journaling run failed, no run opened", "job", jobName, "err", err)
		return 0
	}
	mRunsStarted.Inc()
	return id
}

// findRun returns a job's run by ID. Callers hold d.mu (or are replaying
// before the director is shared).
func (d *Director) findRun(jobName string, runID uint64) (*run, error) {
	runs := d.runs[jobName]
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].id == runID {
			return runs[i], nil
		}
	}
	return nil, fmt.Errorf("director: unknown run %d of job %q", runID, jobName)
}

// PutFileIndex stores a file's metadata and index under a run.
func (d *Director) PutFileIndex(jobName string, runID uint64, e proto.FileEntry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.findRun(jobName, runID); err != nil {
		return err
	}
	return d.commit(jobName, proto.PutFileIndex{JobName: jobName, RunID: runID, Entry: e})
}

// EndRun marks a run complete: the backup server saw its BackupEnd, so
// every needed chunk of the run's dataset was received. The server sends
// BackupDone on this reply, so the completion is fsynced first; if the
// sync fails the run stays incomplete and the server refuses the
// BackupEnd. An unsynced completion that reaches the disk anyway is
// harmless on replay: the server made the run's chunks durable before
// calling.
func (d *Director) EndRun(jobName string, runID uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.findRun(jobName, runID); err != nil {
		return err
	}
	if err := d.commit(jobName, proto.EndRun{JobName: jobName, RunID: runID}); err != nil {
		return err
	}
	mRunsCompleted.Inc()
	return nil
}

// LatestFiles returns the most recent complete run's file entries. Runs
// that never reached BackupEnd are skipped: their indexes may reference
// chunks the server never received.
func (d *Director) LatestFiles(jobName string) (uint64, []proto.FileEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	runs := d.runs[jobName]
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].complete && len(runs[i].files) > 0 {
			return runs[i].id, runs[i].files, nil
		}
	}
	return 0, nil, fmt.Errorf("director: job %q has no completed runs", jobName)
}

// FilterFPs returns the fingerprints of the job's previous run: the
// filtering fingerprints of the job-chain preliminary filter (§5.1,
// "we use the fingerprints of the dataset of Job(t_{n-1}) as filtering
// fingerprints to filter duplication in the dataset of Job(t_n)").
func (d *Director) FilterFPs(jobName string) []fp.FP {
	d.mu.Lock()
	defer d.mu.Unlock()
	runs := d.runs[jobName]
	for i := len(runs) - 1; i >= 0; i-- {
		// Only complete runs filter: an interrupted run's fingerprints may
		// have no chunk behind them, and filtering on them would tell the
		// next backup not to send data the server does not have.
		if runs[i].complete && len(runs[i].files) > 0 {
			var fps []fp.FP
			for _, f := range runs[i].files {
				fps = append(fps, f.Chunks...)
			}
			return fps
		}
	}
	return nil
}

// TriggerDedup2 asks every registered backup server to run dedup-2 (§3.1:
// "the director initiates a dedup-2 job in which all the backup servers
// cooperate to store new chunks"). Every pass runs SIL, chunk storing and
// SIU as one transaction over the server's chunk log. Connection-level
// failures retry with backoff — re-triggering dedup-2 is idempotent (a
// pass that completed consumed its chunk-log records, so a repeat sees
// only chunks logged since; a pass that failed consumed nothing) — while a
// server-reported failure (Dedup2Done with an error, e.g. a read-only
// store) is returned as-is.
func (d *Director) TriggerDedup2() error {
	attempts := d.Retries + 1
	if d.Retries == 0 {
		attempts = defaultRetries + 1
	} else if d.Retries < 0 {
		attempts = 1
	}
	for _, addr := range d.Servers() {
		mDedup2Triggers.Inc()
		first := true
		err := retry.Policy{Attempts: attempts, Base: 100 * time.Millisecond}.Do(func() error {
			if !first {
				mControlRetries.Inc()
			}
			first = false
			return d.triggerOne(addr)
		})
		if err != nil {
			mDedup2Failures.Inc()
			d.slog.Warn("dedup-2 trigger failed", "server", addr, "err", err)
			return err
		}
	}
	return nil
}

// triggerOne runs one dedup-2 trigger round-trip against one server.
func (d *Director) triggerOne(addr string) error {
	conn, err := proto.DialTimeout(addr, d.ControlTimeout)
	if err != nil {
		return fmt.Errorf("director: dedup-2 trigger: %w", err)
	}
	defer conn.Close()
	// The read bound is the dedup-2 pass budget, not the control timeout:
	// the server is silent until the pass finishes.
	conn.SetTimeouts(
		resolveTimeout(d.Dedup2Timeout, defaultDedup2Timeout),
		resolveTimeout(d.ControlTimeout, defaultControlTimeout),
	)
	if err := conn.Send(proto.Dedup2Request{}); err != nil {
		return err
	}
	msg, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("director: dedup-2 reply: %w", err)
	}
	done, ok := msg.(proto.Dedup2Done)
	if !ok {
		return fmt.Errorf("director: unexpected dedup-2 reply %T", msg)
	}
	if done.Err != "" {
		return fmt.Errorf("director: server %s dedup-2: %s", addr, done.Err)
	}
	d.slog.Info("dedup-2 done", "server", addr,
		"new_chunks", done.NewChunks, "dup_chunks", done.DupChunks, "containers", done.Containers)
	return nil
}

// Serve starts the director's TCP endpoint. It returns after the listener
// is ready; the accept loop runs until Close.
func (d *Director) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("director: listen: %w", err)
	}
	d.mu.Lock()
	d.ln = ln
	d.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conn := proto.NewConn(c)
			// Idle reap: a peer that goes silent (vanished server, cut
			// link) releases its handler instead of pinning it forever.
			conn.SetTimeouts(
				resolveTimeout(d.IdleTimeout, defaultIdleTimeout),
				resolveTimeout(d.ControlTimeout, defaultControlTimeout),
			)
			if !d.track(conn) {
				conn.Close() // raced with Close
				return
			}
			go d.handle(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// track registers a handler connection; false once the director is closed.
func (d *Director) track(conn *proto.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.conns[conn] = struct{}{}
	d.handlers.Add(1)
	return true
}

func (d *Director) untrack(conn *proto.Conn) {
	d.mu.Lock()
	delete(d.conns, conn)
	d.mu.Unlock()
	d.handlers.Done()
}

// Close stops the listener, drains in-flight handlers (they may be mid
// journal write — the caller closes the metastore right after Close), and
// flushes any batched journal writes. The metastore itself stays open;
// its owner closes it.
func (d *Director) Close() error {
	d.mu.Lock()
	d.closed = true
	ln := d.ln
	conns := make([]*proto.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	d.handlers.Wait()
	if serr := d.meta.Sync(); err == nil {
		err = serr
	}
	return err
}

// handle serves one connection (a backup server or a tool).
func (d *Director) handle(conn *proto.Conn) {
	defer d.untrack(conn)
	defer conn.Close()
	for {
		msg, err := conn.Recv()
		if errors.Is(err, proto.ErrLegacyFrame) {
			// A backup server at protocol version 3 or older: refuse it
			// in a frame it decodes, then hang up.
			conn.Send(proto.LegacyRefusal())
			return
		}
		if err != nil {
			return
		}
		var reply any
		switch m := msg.(type) {
		case proto.RegisterServer:
			reply = proto.RegisterOK{ServerID: d.RegisterServer(m.Addr)}
		case proto.NewRun:
			if id := d.NewRun(m.JobName, m.Client); id != 0 {
				reply = proto.NewRunOK{RunID: id}
			} else {
				reply = proto.Ack{OK: false, Err: fmt.Sprintf("director: could not open a run of job %q", m.JobName)}
			}
		case proto.EndRun:
			if err := d.EndRun(m.JobName, m.RunID); err != nil {
				reply = proto.Ack{OK: false, Err: err.Error()}
			} else {
				reply = proto.Ack{OK: true}
			}
		case proto.PutFileIndex:
			if err := d.PutFileIndex(m.JobName, m.RunID, m.Entry); err != nil {
				reply = proto.Ack{OK: false, Err: err.Error()}
			} else {
				reply = proto.Ack{OK: true}
			}
		case proto.GetJobFiles:
			runID, files, err := d.LatestFiles(m.JobName)
			if err != nil {
				reply = proto.Ack{OK: false, Err: err.Error()}
			} else {
				reply = proto.JobFiles{RunID: runID, Entries: files}
			}
		case proto.GetFilterFPs:
			reply = proto.FilterFPs{FPs: d.FilterFPs(m.JobName)}
		default:
			reply = proto.Ack{OK: false, Err: fmt.Sprintf("unexpected message %T", msg)}
		}
		if err := conn.Send(reply); err != nil {
			d.slog.Warn("control reply send failed", "msg", fmt.Sprintf("%T", msg), "err", err)
			return
		}
	}
}
