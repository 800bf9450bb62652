package chunklog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"debar/internal/fp"
	"debar/internal/obs"
)

var errCrash = errors.New("simulated crash")

// crashModel tracks what a WAL of four-record segments must recover: the
// records appended and synced (acked) in order, which of them a drain
// consumed, and which segment each went to.
type crashModel struct {
	t        *testing.T
	l        *Log
	fps      []fp.FP
	seg      []int // segment of each record, counting bring-ups
	consumed []bool
	draining []int // records of the drain in progress
	cur, n   int   // current segment and its record count
	listing  []string
}

// appendSync appends and syncs k fixed records, stopping at the first
// error.
func (m *crashModel) appendSync(k int) error {
	for range k {
		i := len(m.fps)
		f, data := fixedRecord(i)
		if err := m.l.Append(f, uint32(len(data)), data); err != nil {
			return err
		}
		if err := m.l.Sync(); err != nil {
			return err
		}
		if m.n == 4 {
			m.cur, m.n = m.cur+1, 0
		}
		m.fps, m.seg, m.consumed = append(m.fps, f), append(m.seg, m.cur), append(m.consumed, false)
		m.n++
	}
	return nil
}

// drain drains every unconsumed record, appending extra more from inside
// the transaction.
func (m *crashModel) drain(extra int) error {
	var txn []int
	stored := false
	err := m.l.Drain(func(tx *Txn) error {
		for i, done := range m.consumed {
			if !done {
				txn = append(txn, i)
			}
		}
		if len(txn) != len(tx.FPs) {
			m.t.Fatalf("drain holds %d records, model %d", len(tx.FPs), len(txn))
		}
		if err := m.appendSync(extra); err != nil {
			return err
		}
		m.listing = segFiles(m.t, m.l.dir)
		stored = true
		return nil
	})
	if !stored {
		return err // the transaction failed: nothing consumed
	}
	for _, i := range txn {
		m.consumed[i] = true
	}
	if err != nil {
		m.draining = txn // crashed while retiring: these may replay
		return err
	}
	if slices.Index(m.consumed, false) < 0 {
		m.cur, m.n = m.cur+1, 0 // caught up: the next record opens a new segment
	}
	return nil
}

// scenario drives rotation, recycling from spares, new segments, a
// caught-up drain and a drain with appends past it.
func (m *crashModel) scenario() error {
	steps := []func() error{
		func() error { return m.appendSync(10) }, // rotates twice into new segments
		func() error { return m.drain(0) },       // retires 3, recycles one as the next segment
		func() error { return m.appendSync(10) }, // rotates into both remaining spares
		func() error { return m.appendSync(3) },  // no spare left: a new segment
		func() error { return m.drain(2) },       // retires the sealed segments only
		func() error { return m.appendSync(5) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// check verifies the records a reopened WAL holds against the model: it
// replays, in append order, every acked record no drain consumed; besides
// those, only consumed records of segments that may not have retired: the
// segments still holding unconsumed records, and every segment of a drain
// that crashed while retiring. Nothing else — no record of a retired
// segment and no stale record of a recycled file.
func (m *crashModel) check(t *testing.T, got []fp.FP) {
	t.Helper()
	live := make(map[int]bool)
	for i, done := range m.consumed {
		if !done {
			live[m.seg[i]] = true
		}
	}
	for _, i := range m.draining {
		live[m.seg[i]] = true
	}
	at := make(map[fp.FP]int, len(m.fps))
	for i, f := range m.fps {
		at[f] = i
	}
	prev, held := -1, 0
	for _, f := range got {
		i, ok := at[f]
		switch {
		case !ok:
			t.Fatalf("replayed a record never acked: %s", f.Short())
		case i <= prev:
			t.Fatalf("replayed record %d out of append order", i)
		case m.consumed[i] && !live[m.seg[i]]:
			t.Fatalf("replayed record %d of retired segment %d", i, m.seg[i])
		}
		if !m.consumed[i] {
			held++
		}
		prev = i
	}
	if unconsumed := len(m.consumed) - countTrue(m.consumed); held != unconsumed {
		t.Fatalf("replayed %d of the %d acked unconsumed records", held, unconsumed)
	}
}

func countTrue(bs []bool) (n int) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// copyWAL copies the segment files of the WAL in src to a new directory.
func copyWAL(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range segFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashVariants returns how a crash at step can leave the WAL directory
// dir: every write so far on disk, and each way the writes the step has
// not yet synced can be lost.
func crashVariants(t *testing.T, step, dir string, m *crashModel) map[string]func(t *testing.T, snap string) {
	t.Helper()
	asIs := func(*testing.T, string) {}
	switch step {
	case "renamed":
		// The directory is not yet synced: the drain's renames may all be
		// lost. Pair the names that vanished with those that appeared.
		now := segFiles(t, dir)
		var gone, came []string
		for _, n := range m.listing {
			if !slices.Contains(now, n) {
				gone = append(gone, n)
			}
		}
		for _, n := range now {
			if !slices.Contains(m.listing, n) {
				came = append(came, n)
			}
		}
		if len(gone) != len(came) {
			t.Fatalf("renames: %v gone, %v appeared", gone, came)
		}
		return map[string]func(*testing.T, string){"persisted": asIs, "lost": func(t *testing.T, snap string) {
			for i := range gone {
				if err := os.Rename(filepath.Join(snap, came[i]), filepath.Join(snap, gone[i])); err != nil {
					t.Fatal(err)
				}
			}
		}}
	case "header":
		// The reused spare's new header is not yet synced: it may still
		// name the sequence number of the spare's earlier life.
		return map[string]func(*testing.T, string){"persisted": asIs, "lost": func(t *testing.T, snap string) {
			names := segFiles(t, snap)
			for i := len(names) - 1; i >= 0; i-- {
				f, err := os.OpenFile(filepath.Join(snap, names[i]), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				seq, ok, err := readSegHeader(f)
				name, _ := parseSegName(names[i])
				if err == nil && ok && seq == name {
					var old [8]byte
					binary.BigEndian.PutUint64(old[:], seq-3)
					_, err = f.WriteAt(old[:], 8)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				f.Close()
			}
			t.Fatal("no live segment to roll back")
		}}
	case "created":
		// The new file's directory entry is not yet synced.
		return map[string]func(*testing.T, string){"persisted": asIs, "lost": func(t *testing.T, snap string) {
			names := segFiles(t, snap)
			if err := os.Remove(filepath.Join(snap, names[len(names)-1])); err != nil {
				t.Fatal(err)
			}
		}}
	default: // "sealed": every write is synced
		return map[string]func(*testing.T, string){"persisted": asIs}
	}
}

// TestWALRecycleCrashPoints crashes a WAL of small segments at every step
// of rotation and recycling — after sealing a segment, after creating a
// new file, after each rename that retires a segment and before the
// directory sync, after rewriting a reused spare's header — in every way
// the unsynced steps can land on disk. Each crash state reopens without
// losing an acked record or replaying a retired or stale one, and the
// reopened WAL keeps working: it appends, drains and recycles, and the
// next reopen replays exactly what it should.
func TestWALRecycleCrashPoints(t *testing.T) {
	// A dry run names every step the scenario passes.
	var steps []string
	dry := &crashModel{t: t, l: openSized(t, t.TempDir(), fourRecords)}
	dry.l.stepFn = func(step string) error { steps = append(steps, step); return nil }
	if err := dry.scenario(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sealed", "created", "renamed", "header"} {
		if !slices.Contains(steps, want) {
			t.Fatalf("scenario never reaches step %q (steps %v)", want, steps)
		}
	}

	for k, step := range steps {
		m := &crashModel{t: t}
		dir := t.TempDir()
		m.l = openSized(t, dir, fourRecords)
		variants := map[string]func(*testing.T, string){}
		var snapDir string
		seen := 0
		m.l.stepFn = func(string) error {
			if seen++; seen-1 != k {
				return nil
			}
			snapDir = copyWAL(t, dir)
			variants = crashVariants(t, step, dir, m)
			return errCrash
		}
		if err := m.scenario(); !errors.Is(err, errCrash) {
			t.Fatalf("step %d (%s): scenario returned %v, want the crash", k, step, err)
		}
		for name, mutate := range variants {
			t.Run(fmt.Sprintf("%02d-%s-%s", k, step, name), func(t *testing.T) {
				snap := copyWAL(t, snapDir)
				mutate(t, snap)
				l, err := openWAL(snap, fourRecords)
				if err != nil {
					t.Fatalf("reopen after the crash: %v", err)
				}
				defer l.Close()
				got := l.Pending()
				m.check(t, got)
				var walked []fp.FP
				if err := l.Iterate(func(r Record) error {
					if fp.New(r.Data) != r.FP {
						return fmt.Errorf("record %s holds other data", r.FP.Short())
					}
					walked = append(walked, r.FP)
					return nil
				}); err != nil || !slices.Equal(walked, got) {
					t.Fatalf("walk after the crash: %d records (%v), want %d", len(walked), err, len(got))
				}

				// The reopened WAL keeps working: appends land after the
				// recovered records, a drain retires them all, and the next
				// reopen replays only what came after.
				var more []fp.FP
				for i := 5000; i < 5006; i++ {
					f, data := fixedRecord(i)
					if err := l.Append(f, uint32(len(data)), data); err != nil {
						t.Fatal(err)
					}
					more = append(more, f)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				l2 := openSized(t, snap, fourRecords)
				if got2 := l2.Pending(); !slices.Equal(got2, append(slices.Clone(got), more...)) {
					t.Fatalf("second reopen replayed %d records, want %d", len(got2), len(got)+len(more))
				}
				drainTxn(t, l2, nil)
				tail, data := fixedRecord(6000)
				if err := l2.Append(tail, uint32(len(data)), data); err != nil {
					t.Fatal(err)
				}
				if err := l2.Close(); err != nil {
					t.Fatal(err)
				}
				if _, fps := reopenWAL(t, snap); !slices.Equal(fps, []fp.FP{tail}) {
					t.Fatalf("reopen after a caught-up drain replayed %d records, want only the 1 after it", len(fps))
				}
			})
		}
	}
}

// TestWALRecycleDirSyncFails: a caught-up drain renames its segments into
// spares and then fails to sync the directory. No spare may take appends
// while its new name is not durable — after a crash it could come back
// under its live name with a header naming another number, and its
// records would be dropped as a spare's — so appends fail until the
// directory syncs. A crash in which the renames are lost, or kept, loses
// no acked record; once the directory syncs again, the spares are reused.
func TestWALRecycleDirSyncFails(t *testing.T) {
	dir := t.TempDir()
	m := &crashModel{t: t, l: openSized(t, dir, fourRecords)}
	if err := m.appendSync(10); err != nil {
		t.Fatal(err)
	}
	eio := errors.New("injected directory sync failure")
	var variants map[string]func(*testing.T, string)
	setDirFail := func(fn func() error) {
		m.l.mu.Lock()
		m.l.dirFailFn = fn
		m.l.mu.Unlock()
	}
	setDirFail(func() error {
		if variants == nil { // the first directory sync: the drain's renames are done
			variants = crashVariants(t, "renamed", dir, m)
		}
		return eio
	})
	if err := m.drain(0); !errors.Is(err, eio) {
		t.Fatalf("drain with a failing directory sync = %v, want the failure", err)
	}
	m.cur, m.n = m.cur+1, 0      // the drain caught up: the next record opens a segment
	appendErr := m.appendSync(6) // what it acks, the crash must keep
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			snap := copyWAL(t, dir)
			mutate(t, snap)
			l := openSized(t, snap, fourRecords)
			m.check(t, l.Pending())
		})
	}
	if appendErr == nil {
		t.Fatal("appends succeeded while the directory does not sync")
	}

	setDirFail(nil)
	reused := obs.GetCounter("store_wal_segments_reused_total")
	before := reused.Value()
	if err := m.appendSync(6); err != nil {
		t.Fatalf("append once the directory syncs again: %v", err)
	}
	if reused.Value() == before {
		t.Fatal("no spare was reused once the directory synced")
	}
	l := openSized(t, copyWAL(t, dir), fourRecords)
	m.check(t, l.Pending())
}
