package seglog

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openCommit opens an empty test log in a fresh directory, closed at test
// end, with hook as its Sync fault hook.
func openCommit(t *testing.T, hook func() error) *Log {
	t.Helper()
	l, _, err := openTest(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	l.SetFaults(Faults{Sync: hook})
	return l
}

// appendN appends the frames numbered lo to hi-1 without syncing them.
func appendN(t *testing.T, l *Log, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := l.Append(append(make([]byte, FrameHeader), framePayload(i)...), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// syncAll runs n concurrent Syncs and returns their results.
func syncAll(l *Log, n int) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Sync()
		}()
	}
	wg.Wait()
	return errs
}

// flushers counts the goroutines running a log's flusher.
func flushers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("debar/internal/seglog.(*Log).flush("))
}

// noFlusher fails the test unless every flusher goroutine has exited: at
// once, give or take the instructions between its last unlock and its
// return.
func noFlusher(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); flushers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d flusher goroutines outlived Close", flushers())
		}
	}
}

// TestSyncCoalesces: concurrent barriers after a run of appends share
// the flusher's fsyncs: the one in flight, if any, and one covering
// every append. Coalescing is the point of the log's group commit.
func TestSyncCoalesces(t *testing.T) {
	var fsyncs atomic.Int64
	l := openCommit(t, func() error {
		fsyncs.Add(1)
		time.Sleep(2 * time.Millisecond) // a disk-speed fsync
		return nil
	})
	appendN(t, l, 0, 64)
	const k = 32
	before := fsyncs.Load()
	for i, err := range syncAll(l, k) {
		if err != nil {
			t.Fatalf("Sync %d: %v", i, err)
		}
	}
	if got := fsyncs.Load() - before; got > 2 {
		t.Fatalf("%d concurrent barriers took %d fsyncs, want at most 2", k, got)
	}
}

// TestSyncErrorReachesEveryWaiter: a failed fsync surfaces to every
// barrier waiting on it.
func TestSyncErrorReachesEveryWaiter(t *testing.T) {
	injected := errors.New("injected sync failure")
	l := openCommit(t, func() error { return injected })
	appendN(t, l, 0, 4)
	for i, err := range syncAll(l, 4) {
		if !errors.Is(err, injected) {
			t.Fatalf("Sync %d during the failure = %v, want the injected error", i, err)
		}
	}
}

// TestSyncFailureIsSticky: once an fsync has failed, every later Sync and
// Close returns that first error without another fsync, even though the
// medium would now succeed. After a failed fsync the kernel may have
// dropped the dirty pages, so a later fsync that succeeds proves nothing
// about the bytes appended before the failure — and a failure nobody
// waited on must not let a later barrier vouch for them.
func TestSyncFailureIsSticky(t *testing.T) {
	first := errors.New("injected sync failure")
	var calls atomic.Int64
	l := openCommit(t, func() error {
		if calls.Add(1) == 1 {
			return first
		}
		return nil
	})
	// The failing fsync has no waiter, like the WAL's under a chunk batch.
	appendN(t, l, 0, 1)
	for deadline := time.Now().Add(10 * time.Second); l.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never synced an append nobody waited on")
		}
	}
	appendN(t, l, 1, 3)
	for i := 0; i < 3; i++ {
		if err := l.Sync(); !errors.Is(err, first) {
			t.Fatalf("Sync after the failure = %v, want the first error", err)
		}
	}
	if err := l.Close(); !errors.Is(err, first) {
		t.Fatalf("Close after the failure = %v, want the first error", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d fsyncs, want 1 (none after the failure)", got)
	}
	noFlusher(t)
}

// TestCloseStopsFlusher: Close waits for the flusher's fsync in flight,
// syncs what it has not, and returns only once the flusher has exited.
// Appends after Close fail, and a Sync after it has nothing to wait for.
func TestCloseStopsFlusher(t *testing.T) {
	var fsyncs atomic.Int64
	l := openCommit(t, func() error {
		fsyncs.Add(1)
		time.Sleep(5 * time.Millisecond) // keep the flusher busy into Close
		return nil
	})
	appendN(t, l, 0, 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fsyncs.Load() == 0 {
		t.Fatal("Close returned before any fsync")
	}
	l.mu.Lock()
	synced, appended := l.synced, l.appended
	l.mu.Unlock()
	if synced != appended {
		t.Fatalf("Close left %d of %d appended bytes unsynced", appended-synced, appended)
	}
	noFlusher(t)
	if _, err := l.Append(append(make([]byte, FrameHeader), framePayload(8)...), nil); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close = %v, want nil", err)
	}
}

// TestRetireWaitsForFsync: a retirement that closes the file the
// flusher is fsyncing waits for that fsync. Three retired segments leave
// two spares once the next segment comes up, so retiring that segment
// too closes its file (spares are kept up to the number the latest
// retirement retired); an fsync still running on it would fail, and the
// failure would stick.
func TestRetireWaitsForFsync(t *testing.T) {
	l, _, err := openTest(t.TempDir(), fourFrames)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendFrames(t, l, 0, 12)
	if err := l.RetireBefore(l.Last() + 1); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	l.SetFaults(Faults{Sync: func() error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}})
	appendN(t, l, 12, 13)
	<-entered
	retired := make(chan error, 1)
	go func() { retired <- l.RetireBefore(l.Last() + 1) }()
	for waiting := false; !waiting; time.Sleep(time.Millisecond) {
		select {
		case err := <-retired:
			close(release)
			t.Fatalf("RetireBefore returned (err %v) with the flusher's fsync in flight", err)
		default:
		}
		l.mu.Lock()
		waiting = l.retiring
		l.mu.Unlock()
	}
	close(release)
	if err := <-retired; err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after the retirement = %v: the fsync in flight ran on a closed file", err)
	}
}
