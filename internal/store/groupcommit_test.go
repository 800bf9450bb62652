package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCommitterCoalesces: N concurrent commits over a slow sync must
// complete with far fewer sync calls than commits — that coalescing is
// the whole point of the scheduler.
func TestCommitterCoalesces(t *testing.T) {
	var syncs atomic.Int64
	c := NewCommitter(func() error {
		syncs.Add(1)
		time.Sleep(2 * time.Millisecond) // a disk-speed fsync
		return nil
	}, -1, -1)
	defer c.Close()

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Commit(1); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := syncs.Load(); got >= n {
		t.Fatalf("%d commits took %d syncs: no coalescing", n, got)
	}
	if got := c.Syncs(); got != syncs.Load() {
		t.Fatalf("Syncs() = %d, syncFn ran %d times", got, syncs.Load())
	}
}

// TestCommitterErrorPropagation: a failed sync must surface to every
// waiter of that window.
func TestCommitterErrorPropagation(t *testing.T) {
	injected := errors.New("injected sync failure")
	c := NewCommitter(func() error { return injected }, -1, -1)
	defer c.Close()

	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.Commit(1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, injected) {
			t.Fatalf("Commit during failure = %v, want injected error", err)
		}
	}
}

// TestCommitterFailureIsSticky: once a sync has failed, every later
// window returns the first error without syncing, even when the sync
// function would now succeed. After a failed fsync the kernel may have
// dropped the dirty pages, so a later successful fsync proves nothing
// about the bytes staged before the failure — and a window nobody waited
// on must not let a later barrier vouch for them.
func TestCommitterFailureIsSticky(t *testing.T) {
	first := errors.New("injected sync failure")
	var calls atomic.Int64
	c := NewCommitter(func() error {
		if calls.Add(1) == 1 {
			return first
		}
		return nil
	}, -1, -1)
	defer c.Close()

	// The failing window has no waiter, like a WAL window holding a
	// chunk batch.
	tk := c.Enqueue(1)
	if err := tk.Wait(); !errors.Is(err, first) {
		t.Fatalf("failed window = %v, want the injected error", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Commit(0); !errors.Is(err, first) {
			t.Fatalf("Commit(0) after the failure = %v, want the first error", err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("sync ran %d times, want 1 (no sync after the failure)", got)
	}
}

// TestCommitterMaxBytesFlushesEarly: a window that crosses the byte cap
// must sync immediately instead of waiting out the hold.
func TestCommitterMaxBytesFlushesEarly(t *testing.T) {
	c := NewCommitter(func() error { return nil }, time.Hour, 100)
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.Commit(100) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("full window waited out the hold instead of flushing early")
	}
}

// TestCommitterClose: Close drains the in-flight window, and later
// Enqueues return resolved tickets (callers checkpoint before closing).
func TestCommitterClose(t *testing.T) {
	var syncs atomic.Int64
	c := NewCommitter(func() error { syncs.Add(1); return nil }, -1, -1)

	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if syncs.Load() == 0 {
		t.Fatal("no sync completed before Close returned")
	}

	if err := waitWithin(t, c.Enqueue(1)); err != nil {
		t.Fatalf("ticket from a closed committer = %v, want nil", err)
	}
}

// TestTicketZeroValue: the zero Ticket is resolved — a closed committer
// hands these out and must never block a session.
func TestTicketZeroValue(t *testing.T) {
	if err := waitWithin(t, Ticket{}); err != nil {
		t.Fatalf("zero Ticket Wait = %v, want nil", err)
	}
}

// waitWithin returns tk.Wait's verdict, failing the test if the ticket
// does not resolve promptly.
func waitWithin(t *testing.T, tk Ticket) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- tk.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("ticket still pending")
		return nil
	}
}
