package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"debar/internal/container"
	"debar/internal/fp"
	"debar/internal/seglog"
	"debar/internal/tpds"
)

// mappedRss returns the resident bytes of this process's mappings of the
// container-log segments under dir, summed from /proc/self/smaps.
func mappedRss(t *testing.T, dir string) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !strings.HasSuffix(f[0], ":") { // a mapping's header line
			in = len(f) >= 6 && strings.HasPrefix(f[5], dir) &&
				strings.HasPrefix(filepath.Base(f[5]), "seg-") && strings.HasSuffix(f[5], ".log")
			continue
		}
		if in && f[0] == "Rss:" && len(f) >= 2 {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps line %q: %v", line, err)
			}
			total += kb << 10
		}
	}
	return total
}

// openResidencyEngine opens an engine whose container-log segments hold
// many test containers each, so that containers share boundary pages.
func openResidencyEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := open(dir, Options{IndexBits: 8}, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// residentChunk is the payload of chunk i of container c: distinct bytes
// per chunk, so a read of the wrong page shows.
func residentChunk(c, i, size int) []byte {
	data := make([]byte, size)
	for j := range data {
		data[j] = byte(c*131 + i*17 + j)
	}
	copy(data, strconv.Itoa(c*1000+i))
	return data
}

// appendResidencyContainers appends n containers of chunks chunks of
// chunkSize bytes to e's repository and indexes them, returning each
// container's fingerprints.
func appendResidencyContainers(t *testing.T, e *Engine, n, chunks, chunkSize int) [][]fp.FP {
	t.Helper()
	w := container.NewWriter(container.HeaderSize+chunks*(chunkSize+64), false)
	fps := make([][]fp.FP, n)
	for c := range n {
		for i := range chunks {
			data := residentChunk(c, i, chunkSize)
			f := fp.New(data)
			if !w.Add(f, uint32(len(data)), data) {
				t.Fatal("test container overflow")
			}
			fps[c] = append(fps[c], f)
		}
		id, err := e.Repo().Append(w.Seal(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fps[c] {
			if err := e.Index().Insert(fp.Entry{FP: f, CID: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fps
}

// TestRestoreResidencyBoundedByLPC: a restore through a small LPC over
// the mapped container log keeps at most the LPC's containers resident
// (plus the one being loaded and a page at each boundary), however many
// containers it reads: each container the LPC evicts is released.
func TestRestoreResidencyBoundedByLPC(t *testing.T) {
	const lpcCap, containers, chunks, chunkSize = 2, 8, 64, 16 << 10
	dir := t.TempDir()
	e := openResidencyEngine(t, dir)
	defer e.Close()
	if !e.SegRepo().Mapped() {
		t.Skip("container log is not memory-mapped here")
	}
	fps := appendResidencyContainers(t, e, containers, chunks, chunkSize)

	rs := tpds.NewRestorer(e.Index(), e.Repo(), lpcCap)
	page := int64(os.Getpagesize())
	r := e.SegRepo()
	r.mu.RLock()
	frame := seglog.FrameHeader + r.loc[0].imgLen
	r.mu.RUnlock()
	bound := (lpcCap+1)*frame + (lpcCap+2)*page
	var peak int64
	for c := range containers {
		for i, f := range fps[c] {
			data, err := rs.Chunk(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, residentChunk(c, i, chunkSize)) {
				t.Fatalf("container %d chunk %d restored wrong bytes", c, i)
			}
			peak = max(peak, mappedRss(t, dir))
		}
	}
	t.Logf("peak mapped Rss %d KiB, bound %d KiB", peak>>10, bound>>10)
	if peak > bound {
		t.Fatalf("restore of %d containers through a %d-container LPC kept %d KiB of container pages resident, want ≤ %d KiB",
			containers, lpcCap, peak>>10, bound>>10)
	}
	if peak == 0 {
		t.Fatal("no mapped page was ever resident: the test measures nothing")
	}
}

// TestForEachMetaMapsNothing: the index rebuild's walk over every
// container's metadata reads with pread and leaves no page mapped in.
func TestForEachMetaMapsNothing(t *testing.T) {
	const containers, chunks, chunkSize = 16, 64, 4 << 10
	dir := t.TempDir()
	e := openResidencyEngine(t, dir)
	defer e.Close()
	fps := appendResidencyContainers(t, e, containers, chunks, chunkSize)

	before := mappedRss(t, dir)
	seen := 0
	if err := e.SegRepo().ForEachMeta(func(id fp.ContainerID, metas []container.ChunkMeta) error {
		if len(metas) != chunks || metas[0].FP != fps[id][0] {
			t.Fatalf("container %v: %d metas, first %v, want %d from %v", id, len(metas), metas[0].FP, chunks, fps[id][0])
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != containers {
		t.Fatalf("ForEachMeta visited %d containers, want %d", seen, containers)
	}
	if after := mappedRss(t, dir); after != before {
		t.Fatalf("ForEachMeta over %d containers moved mapped Rss %d → %d bytes", containers, before, after)
	}
}

// TestReleaseKeepsLoadedSlices: a container's slices from Load read the
// same bytes after Release dropped its pages; a release of an unknown ID,
// or after Close, is a no-op.
func TestReleaseKeepsLoadedSlices(t *testing.T) {
	const chunks, chunkSize = 32, 8 << 10
	dir := t.TempDir()
	e := openResidencyEngine(t, dir)
	appendResidencyContainers(t, e, 2, chunks, chunkSize)
	r := e.SegRepo()

	c, err := r.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(c.Data) // touches every data page
	touched := mappedRss(t, dir)
	r.Release(1)
	if r.Mapped() {
		if released := mappedRss(t, dir); released >= touched {
			t.Fatalf("Release left mapped Rss at %d bytes (was %d)", released, touched)
		}
	}
	if !bytes.Equal(c.Data, want) {
		t.Fatal("a loaded container's data changed after Release")
	}
	for i, m := range c.Meta {
		if got, ok := c.Chunk(m.FP); !ok || !bytes.Equal(got, residentChunk(1, i, chunkSize)) {
			t.Fatalf("chunk %d reads wrong bytes after Release", i)
		}
	}
	r.Release(404) // unknown: nothing to drop

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r.Release(0)
	r.Release(1)
}

// TestReleaseRacesClose: releases in flight while the repository closes
// either finish before the unmapping or see it closed (run with -race).
func TestReleaseRacesClose(t *testing.T) {
	dir := t.TempDir()
	e := openResidencyEngine(t, dir)
	appendResidencyContainers(t, e, 4, 16, 4<<10)
	r := e.SegRepo()
	for id := range fp.ContainerID(4) {
		if _, err := r.Load(id); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 200 {
				r.Release(fp.ContainerID((g + i) % 4))
			}
		}()
	}
	close(start)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
