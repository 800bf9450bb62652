package store

import (
	"sync"
	"time"

	"debar/internal/obs"
)

// Group commit: one flusher goroutine coalesces fsyncs across every
// concurrent writer of a durable file. Writers stage bytes with Enqueue
// (no I/O, no waiting), a single flusher runs the sync function once per
// window, and every writer whose bytes were staged before the sync
// started is released by that one fsync. While one fsync is in flight,
// every arriving writer joins the next window; a small optional hold
// widens windows further when the disk is faster than the arrival rate.
//
// A Committer schedules; it never touches files. The sync function it is
// built over (a seglog.Log's Sync: the chunk-log WAL's or the container
// log's) must be safe to call concurrently with writers appending, and
// must guarantee that everything written before the call started is
// durable when it returns.

const (
	// DefaultCommitMaxBytes flushes a window early once this many bytes
	// are staged, bounding the data sitting in the page cache between
	// fsyncs.
	DefaultCommitMaxBytes = 8 << 20
	// DefaultCommitHold is how long the flusher holds an open window for
	// late joiners before syncing it. The natural coalescing window — the
	// duration of the in-flight fsync — is usually wider; the hold only
	// matters when the disk is idle.
	DefaultCommitHold = 200 * time.Microsecond
)

// commitWindow is one group of staged writes released by a single sync.
type commitWindow struct {
	bytes    int64
	writers  int64         // Enqueue calls that joined the window
	opened   time.Time     // first Enqueue (zero when unmetered)
	full     chan struct{} // closed when bytes crosses the window cap
	fullOnce sync.Once
	done     chan struct{} // closed when the window's sync completed
	err      error         // sync verdict, valid after done is closed
}

func (w *commitWindow) fill() { w.fullOnce.Do(func() { close(w.full) }) }

// Ticket is a claim on a commit window. The zero Ticket is resolved:
// Wait returns nil immediately. Enqueue returns it only after Close, by
// which time the owner has made its own final sync.
type Ticket struct{ w *commitWindow }

// Wait blocks until the ticket's window has been synced and returns the
// sync verdict. Every Wait on the same window returns the same error, and
// once a sync has failed every later window returns that first error.
func (t Ticket) Wait() error {
	if t.w == nil {
		return nil
	}
	<-t.w.done
	return t.w.err
}

// Committer coalesces syncs of one durable file across concurrent
// writers. Safe for concurrent use.
type Committer struct {
	syncFn   func() error
	hold     time.Duration // max time the flusher holds a window open
	maxBytes int64         // staged bytes that flush a window early

	mu          sync.Mutex
	cond        *sync.Cond
	cur         *commitWindow // guarded by mu
	flushing    bool          // guarded by mu
	closed      bool          // guarded by mu
	syncs       int64         // guarded by mu; completed sync calls (stats, tests)
	failed      error         // guarded by mu; first failed sync, returned by every later window
	lastArrival time.Time     // guarded by mu; previous Enqueue (inter-arrival metering)

	// Arrival-rate and coalescing metrics, nil on unnamed committers
	// (obs methods are nil-safe). windowWriters and windowBytes show how
	// wide coalescing actually gets, interarrival against the hold says
	// whether the hold is doing anything, and holdOccupancy (window open
	// time over the configured hold) shows whether windows close on the
	// byte cap, the timer, or flusher backpressure (occupancy > 1).
	mEnqueues      *obs.Counter
	mWindows       *obs.Counter
	mWindowsFull   *obs.Counter
	mWindowBytes   *obs.Histogram
	mWindowWriters *obs.Histogram
	mInterarrival  *obs.Histogram
	mHoldOccupancy *obs.Histogram
	mSyncSeconds   *obs.Histogram
}

// NewCommitter builds a scheduler over syncFn. hold is how long the
// flusher keeps a window open for late joiners and maxBytes the staged
// bytes that flush it early; a value ≤ 0 disables either (no hold / no
// early flush). The storage engine passes DefaultCommitHold and
// DefaultCommitMaxBytes.
func NewCommitter(syncFn func() error, hold time.Duration, maxBytes int64) *Committer {
	c := &Committer{syncFn: syncFn, hold: hold, maxBytes: maxBytes}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// NewNamedCommitter is NewCommitter plus metrics: the committer
// registers its series under store_commit_<name>_* in the process
// registry. The engine names its two schedulers "wal" and "repo";
// unnamed committers (NewCommitter) record nothing.
func NewNamedCommitter(name string, syncFn func() error, hold time.Duration, maxBytes int64) *Committer {
	c := NewCommitter(syncFn, hold, maxBytes)
	p := "store_commit_" + name + "_"
	c.mEnqueues = obs.GetCounter(p + "enqueues_total")
	c.mWindows = obs.GetCounter(p + "windows_total")
	c.mWindowsFull = obs.GetCounter(p + "windows_full_total")
	c.mWindowBytes = obs.GetHistogram(p+"window_bytes", obs.SizeBuckets)
	c.mWindowWriters = obs.GetHistogram(p+"window_writers", obs.CountBuckets)
	c.mInterarrival = obs.GetHistogram(p+"interarrival_seconds", obs.DurationBuckets)
	c.mHoldOccupancy = obs.GetHistogram(p+"hold_occupancy", obs.ExpBuckets(0.0625, 2, 12))
	c.mSyncSeconds = obs.GetHistogram(p+"sync_seconds", obs.DurationBuckets)
	return c
}

// Enqueue stages n bytes into the current window and returns a Ticket
// the caller can Wait on. The bytes themselves must already be written
// (buffered) by the caller; Enqueue never blocks on I/O. After Close,
// Enqueue returns a resolved Ticket — callers must arrange their own
// final sync before closing (Engine.Close checkpoints first).
func (c *Committer) Enqueue(n int64) Ticket {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Ticket{}
	}
	if c.mEnqueues != nil {
		c.mEnqueues.Inc()
		now := time.Now()
		if !c.lastArrival.IsZero() {
			c.mInterarrival.Observe(now.Sub(c.lastArrival).Seconds())
		}
		c.lastArrival = now
	}
	w := c.cur
	if w == nil {
		w = &commitWindow{full: make(chan struct{}), done: make(chan struct{})}
		if c.mEnqueues != nil {
			w.opened = c.lastArrival
		}
		c.cur = w
		if !c.flushing {
			c.flushing = true
			go c.flushLoop()
		}
	}
	w.bytes += n
	w.writers++
	if c.maxBytes > 0 && w.bytes >= c.maxBytes {
		w.fill()
	}
	return Ticket{w: w}
}

// Commit stages n bytes and waits for the covering sync: the group-commit
// equivalent of an inline fsync.
func (c *Committer) Commit(n int64) error { return c.Enqueue(n).Wait() }

// flushLoop is the single flusher: it detaches the current window, runs
// the sync, releases the window's waiters, and repeats until no window is
// pending. Started lazily by Enqueue, so an idle Committer costs nothing.
func (c *Committer) flushLoop() {
	for {
		c.mu.Lock()
		w := c.cur
		if w == nil {
			c.flushing = false
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		// Hold the window open briefly for late joiners. Writers arriving
		// during the sync below join the *next* window, which is the main
		// coalescing mechanism once the disk is busy.
		if c.hold > 0 {
			t := time.NewTimer(c.hold)
			select {
			case <-w.full:
			case <-t.C:
			}
			t.Stop()
		}

		c.mu.Lock()
		c.cur = nil // detach: later Enqueues open a fresh window
		c.mu.Unlock()

		if c.mWindows != nil {
			c.mWindowBytes.Observe(float64(w.bytes))
			c.mWindowWriters.Observe(float64(w.writers))
			if !w.opened.IsZero() && c.hold > 0 {
				// Window lifetime over the configured hold: ~1 means the
				// timer closed it, <1 the byte cap, >1 flusher backlog.
				c.mHoldOccupancy.Observe(time.Since(w.opened).Seconds() / c.hold.Seconds())
			}
			select {
			case <-w.full:
				c.mWindowsFull.Inc()
			default:
			}
		}

		// A failed sync is sticky: after it the kernel may have dropped
		// the dirty pages, so a later sync that succeeds proves nothing
		// about the bytes staged before the failure.
		c.mu.Lock()
		err := c.failed
		c.mu.Unlock()
		if err == nil {
			start := time.Now()
			err = c.syncFn()
			if c.mWindows != nil {
				c.mWindows.Inc()
				c.mSyncSeconds.Since(start)
			}
			c.mu.Lock()
			c.syncs++
			c.failed = err
			c.mu.Unlock()
		}
		w.err = err
		close(w.done)
	}
}

// Syncs returns how many sync calls have completed (tests assert
// coalescing by comparing this against the number of Commits).
func (c *Committer) Syncs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// Close waits for the in-flight window (if any) to sync and stops the
// flusher. Subsequent Enqueues return resolved Tickets.
func (c *Committer) Close() {
	c.mu.Lock()
	c.closed = true
	for c.flushing {
		c.cond.Wait()
	}
	c.mu.Unlock()
}
