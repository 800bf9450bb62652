package client

import (
	"fmt"
	"log/slog"
	"time"

	"debar/internal/chunker"
)

// Options collects every client tuning knob in one validated struct.
// The zero value of each field selects the documented default and a
// negative duration/retry value disables the mechanism, matching the
// knob convention used across the repo; the count knobs (BatchSize,
// Window, Workers, RestoreBatchSize, RestoreWindow) have no "disabled"
// notion, so negative values are rejected by Validate.
//
// Construct via DefaultOptions and override, or mutate a New-built
// client's Options field before the first operation; Backup, Restore and
// Verify validate the options at entry.
type Options struct {
	// Chunking configures backup's CDC anchoring (see chunker.Config; the
	// zero value selects the chunker defaults). Backup and verify need
	// not agree on it: verify cuts files at the chunk sizes each run
	// recorded. Changing it moves chunk boundaries, so the next backup of
	// each job re-sends and re-stores its data once.
	Chunking chunker.Config

	// BatchSize is the fingerprints per FPBatch (default 256, the
	// paper's dedup-1 batch granularity).
	BatchSize int
	// Window is the FPBatches kept in flight before the dispatcher
	// blocks (default 4).
	Window int
	// Workers is the fingerprint worker pool size (default GOMAXPROCS,
	// capped at 8).
	Workers int

	// RestoreBatchSize is the chunks per restore batch requested from
	// the server (default 256).
	RestoreBatchSize int
	// RestoreWindow is the restore batches the server may keep in
	// flight before awaiting acks (default 4).
	RestoreWindow int

	// DialTimeout bounds connection establishment (0 selects
	// proto.DefaultDialTimeout, 10s).
	DialTimeout time.Duration
	// IOTimeout bounds each individual transport read/write once
	// connected: a peer that stops moving data for this long fails the
	// operation (and triggers a retry). 0 selects 2 minutes; negative
	// disables the deadlines.
	IOTimeout time.Duration
	// Retries is the transient-failure retry budget per operation: how
	// many times a backup, restore or verify re-attempts after a
	// connection-level failure. 0 selects 3; negative disables retries.
	Retries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// consecutive failure (jittered, capped at 5s). 0 selects 100ms.
	RetryBackoff time.Duration

	// DisableInlineDedup withholds proto.CapInlineDedup from the
	// capability offer in BackupStart, so the session runs the
	// send-everything protocol even against an inline-capable server.
	// For interop testing and measurement; restores and dedup decisions
	// are identical either way.
	DisableInlineDedup bool

	// Logger receives the client's structured log events (retries,
	// resumes). Nil selects slog.Default.
	Logger *slog.Logger
}

// DefaultOptions returns the options New uses: every knob at its
// documented default.
func DefaultOptions() Options {
	return Options{BatchSize: 256}
}

// Validate rejects option values that have no meaning: negative counts
// and a Chunking the chunker would refuse. Zero values (defaults) and
// negative durations/retries (disabled) are valid by the knob convention.
func (o Options) Validate() error {
	if err := o.Chunking.Validate(); err != nil {
		return fmt.Errorf("client: Options.Chunking: %w", err)
	}
	for _, k := range []struct {
		name string
		v    int
	}{
		{"BatchSize", o.BatchSize},
		{"Window", o.Window},
		{"Workers", o.Workers},
		{"RestoreBatchSize", o.RestoreBatchSize},
		{"RestoreWindow", o.RestoreWindow},
	} {
		if k.v < 0 {
			return fmt.Errorf("client: Options.%s must not be negative, got %d", k.name, k.v)
		}
	}
	return nil
}
