package server_test

import (
	"testing"

	"debar/internal/obs"
)

// snapshotDelta reads the named series from the process-global registry
// relative to a baseline. Metrics are global, so other tests running in
// the same process can only push the deltas up — the assertions below
// are all lower bounds.
func snapshotDelta(base map[string]float64) func(name string) float64 {
	cur := obs.Default.Snapshot().Flatten()
	return func(name string) float64 { return cur[name] - base[name] }
}

// TestObservabilityCountersMove drives a durable server through two
// generations of the same dataset and checks the instrumentation tells
// the story: generation one moves chunk batches and bytes through the
// WAL and its fsyncs, generation two — duplicate-heavy by construction
// — lands as preliminary-filter hits, and the fsync series stays
// consistent with coalescing (every fsync covers at least one batch).
func TestObservabilityCountersMove(t *testing.T) {
	d, _, srvAddr := startServer(t, nil)

	src := t.TempDir()
	writeTree(t, src, 7)
	c := testClient(srvAddr)
	c.Options.Window = 4 // several batches in flight → coalescing opportunities

	base := obs.Default.Snapshot().Flatten()
	if _, err := c.Backup("job-obs", src); err != nil {
		t.Fatal(err)
	}
	if err := d.TriggerDedup2(); err != nil {
		t.Fatal(err)
	}
	gen1 := snapshotDelta(base)

	if gen1("server_sessions_opened_total") < 1 {
		t.Fatal("no session opened recorded")
	}
	if gen1("server_chunk_batches_total") < 1 || gen1("server_chunk_bytes_in_total") <= 0 {
		t.Fatalf("chunk ingest not recorded: batches=%v bytes=%v",
			gen1("server_chunk_batches_total"), gen1("server_chunk_bytes_in_total"))
	}
	if gen1("server_dedup2_passes_total") < 1 {
		t.Fatal("dedup-2 pass not recorded")
	}
	if gen1("server_dedup2_sil_seconds_count") < 1 {
		t.Fatal("dedup-2 SIL latency not observed")
	}
	// The pass's own stage split: SIL scan, packing, container appends.
	for _, stage := range []string{"sil", "pack", "append"} {
		if name := "dedup2_pass_" + stage + "_seconds_count"; gen1(name) < 1 {
			t.Fatalf("dedup-2 pass stage %s not observed", name)
		}
	}

	// Group commit: a durable backup cannot complete without syncing
	// the WAL, and the flusher fsyncs only when a batch has appended
	// since its last fsync began, so fsyncs never outnumber batches.
	fsyncs, batches := gen1("store_wal_fsyncs_total"), gen1("server_chunk_batches_total")
	if fsyncs < 1 {
		t.Fatal("no WAL fsyncs recorded for a durable backup")
	}
	if fsyncs > batches {
		t.Fatalf("%v WAL fsyncs for %v chunk batches: an fsync covered no append", fsyncs, batches)
	}

	// Generation two: identical data, so the preliminary filter (primed
	// by the job chain) answers "duplicate" for everything.
	mid := obs.Default.Snapshot().Flatten()
	if _, err := c.Backup("job-obs", src); err != nil {
		t.Fatal(err)
	}
	gen2 := snapshotDelta(mid)

	if gen2("server_prefilter_hits_total") < 1 {
		t.Fatal("duplicate-heavy second generation produced no prefilter hits")
	}
	if gen2("server_chunk_bytes_in_total") > gen1("server_chunk_bytes_in_total")/10 {
		t.Fatalf("second generation ingested %v bytes (first %v): filter hits not reflected in ingest",
			gen2("server_chunk_bytes_in_total"), gen1("server_chunk_bytes_in_total"))
	}
}
