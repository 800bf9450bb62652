package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"debar/internal/container"
	"debar/internal/fp"
	"debar/internal/seglog"
)

// segNames returns the sorted names of the files in dir.
func segNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// copyFiles copies the files of src into dst, creating it.
func copyFiles(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range segNames(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegRepoPreVersionRefused: a container log written before segments
// had headers (a golden one, two tiny containers in seg-00000000.log,
// written by the last build that used the format) is refused with a
// *seglog.VersionError, not skipped as a foreign file name, and left
// byte for byte.
func TestSegRepoPreVersionRefused(t *testing.T) {
	dir := t.TempDir()
	src, containers := filepath.Join("testdata", "v0-containers"), filepath.Join(dir, "containers")
	copyFiles(t, src, containers)
	var ve *seglog.VersionError
	if e, err := Open(dir, Options{IndexBits: 8}); !errors.As(err, &ve) || ve.Found != 0 || ve.Want != repoFormat.Version {
		if err == nil {
			e.Close()
		}
		t.Fatalf("Open over a pre-version container log = %v, want *seglog.VersionError{Found: 0}", err)
	}
	if got, want := segNames(t, containers), segNames(t, src); !slices.Equal(got, want) {
		t.Fatalf("refused container log holds %v, want %v", got, want)
	}
	for _, name := range segNames(t, src) {
		want, _ := os.ReadFile(filepath.Join(src, name))
		if got, err := os.ReadFile(filepath.Join(containers, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused segment %s changed (%d -> %d bytes, err %v)", name, len(want), len(got), err)
		}
	}
}

// TestSegRepoMissingSegmentRefused: a container log missing a sealed
// segment in the middle is refused, although seglog allows gaps in
// sequence numbers: the container IDs after the gap do not follow on.
func TestSegRepoMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	r, err := openSegRepo(dir, 200<<10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		if _, err := r.Append(testContainer(i, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segNames(t, dir)
	if len(segs) < 3 {
		t.Fatalf("8 containers left segments %v, want at least 3", segs)
	}
	if err := os.Remove(filepath.Join(dir, segs[1])); err != nil {
		t.Fatal(err)
	}
	if r, err := openSegRepo(dir, 200<<10); !errors.Is(err, ErrRepoCorrupt) {
		if err == nil {
			r.Close()
		}
		t.Fatalf("open without a middle segment = %v, want ErrRepoCorrupt", err)
	}
}

// TestSegRepoRotationCrashPoints crashes a container log of small
// segments at every step of its rotations — after sealing a segment,
// after creating the next file, at the directory sync that makes it
// durable — with the step's unsynced names on disk or lost. After each
// crash, every container whose Flush returned loads byte for byte, and
// the index rebuilt from the reopened log finds every one of its
// fingerprints.
func TestSegRepoRotationCrashPoints(t *testing.T) {
	const segBytes = 40 << 10 // two containers of 50 chunks
	scenario := func(e *Engine) (flushed []*container.Container, err error) {
		for i := range 8 {
			c := testContainer(i, 50)
			id, err := e.SegRepo().Append(c)
			if err == nil {
				err = e.SegRepo().Flush()
			}
			if err != nil {
				return flushed, err
			}
			flushed = append(flushed, &container.Container{ID: id, Meta: c.Meta, Data: c.Data})
		}
		return flushed, nil
	}
	var points []string
	dry, err := open(t.TempDir(), Options{IndexBits: 8}, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	dry.repo.log.SetFaults(seglog.Faults{
		Step: func(step string) error { points = append(points, step); return nil },
		Dir:  func() error { points = append(points, "dirsync"); return nil },
	})
	if _, err := scenario(dry); err != nil {
		t.Fatal(err)
	}
	if err := dry.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sealed", "created", "dirsync"} {
		if !slices.Contains(points, want) {
			t.Fatalf("scenario never reaches %q (%v)", want, points)
		}
	}

	for k, point := range points {
		dir := t.TempDir()
		e, err := open(dir, Options{IndexBits: 8}, segBytes)
		if err != nil {
			t.Fatal(err)
		}
		containers := filepath.Join(dir, "containers")
		synced := segNames(t, containers)
		var snap string
		var created []string // names the crash may lose: not yet made durable by a directory sync
		seen := 0
		crash := func(step string) error {
			if seen++; seen-1 != k {
				if step == "dirsync" {
					synced = segNames(t, containers)
				}
				return nil
			}
			snap = t.TempDir()
			copyFiles(t, containers, snap)
			for _, n := range segNames(t, containers) {
				if !slices.Contains(synced, n) {
					created = append(created, n)
				}
			}
			return errCrash
		}
		e.repo.log.SetFaults(seglog.Faults{Step: crash, Dir: func() error { return crash("dirsync") }})
		flushed, err := scenario(e)
		if !errors.Is(err, errCrash) {
			t.Fatalf("point %d (%s): scenario returned %v, want the crash", k, point, err)
		}
		e.repo.log.SetFaults(seglog.Faults{})
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		variants := map[string]func(dir string){"persisted": func(string) {}}
		if len(created) > 0 {
			variants["lost"] = func(dir string) {
				for _, n := range created {
					if err := os.Remove(filepath.Join(dir, n)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for name, mutate := range variants {
			t.Run(fmt.Sprintf("%02d-%s-%s", k, point, name), func(t *testing.T) {
				data := t.TempDir()
				copyFiles(t, snap, filepath.Join(data, "containers"))
				mutate(filepath.Join(data, "containers"))
				e, err := open(data, Options{IndexBits: 8}, segBytes)
				if err != nil {
					t.Fatalf("reopen after the crash: %v", err)
				}
				defer e.Close()
				if !e.IndexRebuilt() {
					t.Fatal("index not rebuilt from the reopened container log")
				}
				for _, want := range flushed {
					got, err := e.Repo().Load(want.ID)
					if err != nil || !bytes.Equal(got.Data, want.Data) || !slices.Equal(got.Meta, want.Meta) {
						t.Fatalf("flushed container %v did not survive (%v)", want.ID, err)
					}
					for _, m := range want.Meta {
						if cid, err := e.Index().Lookup(m.FP); err != nil || cid != want.ID {
							t.Fatalf("rebuilt index maps %s to %v (%v), want container %v", m.FP.Short(), cid, err, want.ID)
						}
					}
				}
				// The reopened log keeps appending past the survivors.
				id, err := e.Repo().Append(testContainer(99, 10))
				if err != nil || id != fp.ContainerID(e.Repo().Containers()-1) {
					t.Fatalf("append after the crash = %v, %v", id, err)
				}
			})
		}
	}
}

var errCrash = errors.New("simulated crash")

// TestSegRepoDamagedHeaderRefused: a container log with three containers
// in its only segment whose header takes damage in any one byte is
// refused with a typed error, and every file is left byte for byte. A
// damaged version is a *seglog.VersionError. Damage to the magic or the
// sequence number would make the file a spare, but its first frame still
// passes its checksum under the file's number, so it is a live segment
// with a damaged header: a *seglog.CorruptError.
func TestSegRepoDamagedHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	r, err := openSegRepo(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := r.Append(testContainer(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segNames(t, dir)
	if len(segs) != 1 {
		t.Fatalf("3 containers left segments %v, want one", segs)
	}
	seg := filepath.Join(dir, segs[0])
	for at := range int64(seglog.HeaderSize) {
		flipByte(t, seg, at)
		want, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var target any = new(*seglog.CorruptError)
		if at >= 4 && at < 8 {
			target = new(*seglog.VersionError)
		}
		if r, err := openSegRepo(dir, 1<<20); !errors.As(err, target) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("open with header byte %d flipped = %v, want %T", at, err, target)
		}
		if got := segNames(t, dir); !slices.Equal(got, segs) {
			t.Fatalf("refused open left %v, want %v", got, segs)
		}
		if got, err := os.ReadFile(seg); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused open changed %s (err %v)", segs[0], err)
		}
		flipByte(t, seg, at)
	}
}

// flipByte inverts the byte at off of the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(errors.Join(err, f.Close()))
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
