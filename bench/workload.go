package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"debar"
	"debar/internal/client"
	"debar/internal/fp"
)

// The load is a closed loop of `clients` concurrent backup clients against
// one in-process durable deployment. Two is this sandbox's core count; the
// benchmark never runs more client operations at once than that.
const clients = 2

// indexBits sizes the disk index so that 2 × 128 MiB of ~10 KiB chunks
// fill it to 30–50 %, like the paper's sized index. A larger index would
// make every SIL/SIU scan look cheap per stored chunk.
const indexBits = 12

// workload is one regime of the backup cycle. The flags are the only
// thing the cycle code branches on.
type workload struct {
	Name string
	Why  string

	tree       bool // source is a tree of ~10^3 small files, mutated each cycle; otherwise 4 large files
	base       bool // setup stores the source as a first generation and dedup-2s it
	sameJob    bool // cycles reuse the base's job name, so the job-chain prefilter applies
	freshStore bool // every cycle starts on a new empty DataDir
	noInline   bool // clients set Options.DisableInlineDedup
}

var workloads = []workload{
	{
		Name:       "fresh",
		Why:        "first full backup: every chunk is new, so all bytes cross the wire, the WAL and dedup-2's container packing and SIU; restore is sequential in container order",
		freshStore: true,
	},
	{
		Name: "incr", tree: true, base: true, sameJob: true,
		Why: "nightly incremental of ~900 small files, 5 % new bytes: the job-chain prefilter answers most fingerprints, so chunker+SHA-1 and per-file cost dominate and the WAL does little",
	},
	{
		Name: "xjob-inline", base: true,
		Why: "the same data under a new job name with inline dedup on: every fingerprint is answered by a random disk-index probe; WAL, containers and dedup-2 are bypassed",
	},
	{
		Name: "xjob-sil", base: true, noInline: true,
		Why: "the same data with inline dedup off (the paper's regime): everything is sent and logged, then one sequential SIL pass proves it duplicate and stores nothing",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type config struct {
	w         workload
	seed      uint64
	seconds   float64 // measurement budget: past minCycles, cycles stop when it is spent
	trace     bool
	perClient int64 // logical bytes per client per generation
	minCycles int   // measured cycles that run whatever the budget
	maxCycles int   // cycles stop here even with budget left
	warmup    int
	setups    int    // times set-up runs; setup_s is the median of all but the first
	workDir   string // everything the run writes lives under here and is removed at exit
	traceDir  string // span files go here (kept)
	log       io.Writer
}

// result is one workload's run, as written by -out and read by -compare.
type result struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Cycles         int                `json:"cycles"`
	BytesPerClient int64              `json:"bytes_per_client"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	EndToEnd       map[string]summary `json:"end_to_end,omitempty"`
	PerLayer       map[string]summary `json:"per_layer,omitempty"`
}

func (r result) failedOpsRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

type run struct {
	cfg config
	rec *recorder

	sys     *debar.System
	dataDir string
	nData   int
	trees   [clients]*tree
	jobs    [clients]string // job each client last backed up, i.e. what a restore returns
	gen     int             // cycles started, warm-up included

	prevFPs []fp.FP // traced runs: client 0's job-chain filtering fingerprints before the latest backup

	attempted, failed int
	e2e, layer        samples
}

// op accounts one operation whose failure is a failed operation of the
// benchmark (and, being unexpected on these workloads, ends the run).
func (r *run) op(what string, err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

func runWorkload(cfg config) (res result, err error) {
	r := &run{cfg: cfg, e2e: samples{}, layer: samples{}}
	defer func() {
		r.closeSystem()
		err = errors.Join(err, os.RemoveAll(cfg.workDir))
	}()

	// All set-ups but the last are torn down again. A process's first is
	// up to six times slower than the rest (cold heap, first page faults),
	// so like the first cycle it is a warm-up, unless it is the only one.
	for n := 0; n < cfg.setups; n++ {
		r.closeSystem()
		if err := os.RemoveAll(cfg.workDir); err != nil {
			return res, err
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return res, err
		}
		if n > 0 || cfg.setups == 1 {
			r.e2e.add("setup_s", time.Since(t0).Seconds())
		}
	}

	for i := 0; i < cfg.warmup; i++ {
		if _, err := r.cycle(false); err != nil {
			return res, err
		}
	}
	if cfg.trace {
		r.rec = newRecorder(cfg.w.Name)
	}
	var plain, traced []float64 // backup MB/s of untraced and traced cycles
	start := time.Now()
	n := 0
	for ; n < cfg.maxCycles && (n < cfg.minCycles || time.Since(start).Seconds() < cfg.seconds); n++ {
		// A traced run alternates so that both kinds see the same store state.
		withSpans := cfg.trace && n%2 == 1
		c, err := r.cycle(withSpans)
		if err != nil {
			return res, err
		}
		r.account(c)
		if withSpans {
			traced = append(traced, c.backupMBps())
		} else {
			plain = append(plain, c.backupMBps())
		}
	}
	r.e2e.add("peak_rss_MB", peakRSS())

	if err := r.reopenCheck(); err != nil {
		return res, err
	}
	if cfg.trace {
		if len(traced) > 0 {
			p, t := summarize(plain).Median, summarize(traced).Median
			r.layer.add("trace.overhead_pct", 100*ratio(p-t, p))
		}
		if err := r.probes(); err != nil {
			return res, err
		}
		if err := r.rec.write(filepath.Join(cfg.traceDir, "trace-"+cfg.w.Name+".json")); err != nil {
			return res, err
		}
	}

	res = result{
		Workload: cfg.w.Name, Seed: cfg.seed, Cycles: n, BytesPerClient: cfg.perClient,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
	}
	if cfg.trace {
		res.PerLayer = r.layer.summarize(perLayer)
	} else {
		res.EndToEnd = r.e2e.summarize(endToEnd)
	}
	return res, nil
}

func (r *run) srcDir(c int) string { return filepath.Join(r.cfg.workDir, "src", fmt.Sprintf("c%d", c)) }

func (r *run) startSystem(dataDir string) error {
	sys, err := debar.StartLocal(1, debar.ServerConfig{IndexBits: indexBits, DataDir: dataDir})
	if err != nil {
		return err
	}
	r.sys, r.dataDir = sys, dataDir
	return nil
}

func (r *run) newDataDir() string {
	r.nData++
	return filepath.Join(r.cfg.workDir, fmt.Sprintf("data-%d", r.nData))
}

func (r *run) closeSystem() {
	if r.sys != nil {
		r.sys.Close()
		r.sys = nil
	}
}

func (r *run) client(sys *debar.System, c int) *debar.Client {
	cl := debar.NewClient(sys.ServerAddrs[0], fmt.Sprintf("client-%d", c))
	cl.Options.DisableInlineDedup = r.cfg.w.noInline
	return cl
}

// setup is everything a run does once before its cycles: generate the
// sources, start the deployment, store the base generation.
func (r *run) setup() error {
	w := r.cfg.w
	err := concurrently(func(c int) (err error) {
		rnd := derive(r.cfg.seed, 'd', uint64(c))
		if w.tree {
			r.trees[c], err = genTree(r.srcDir(c), rnd, r.cfg.perClient)
		} else {
			r.trees[c], err = genFlat(r.srcDir(c), rnd, 4, r.cfg.perClient)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("generating source: %w", err)
	}
	if err := r.startSystem(r.newDataDir()); err != nil {
		return err
	}
	if !w.base {
		return nil
	}
	for c := range r.jobs {
		r.jobs[c] = fmt.Sprintf("base-%d", c)
	}
	if _, _, err := r.backupAll(0, 0); err != nil {
		return err
	}
	return r.op("base dedup-2", r.sys.RunDedup2())
}

// diskBytes is the size of the two files a backup leaves behind for good:
// the container log (chunks) and the director's journal (file recipes).
func (r *run) diskBytes() (containers, journal int64) {
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	segs, _ := filepath.Glob(filepath.Join(r.dataDir, "server-0", "containers", "seg-*.log"))
	for _, s := range segs {
		containers += size(s)
	}
	return containers, size(filepath.Join(r.dataDir, "director", "meta.journal"))
}

// concurrently runs fn once per client, all at the same time, and returns
// their errors joined.
func concurrently(fn func(c int) error) error {
	var wg sync.WaitGroup
	var errs [clients]error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// eachClient runs one client operation per client concurrently, each
// inside its own child span, and returns the wall time of the slowest.
func (r *run) eachClient(name string, parent, cycle int, fn func(c int) error) (time.Duration, error) {
	var errs [clients]error
	t0 := time.Now()
	_ = concurrently(func(c int) error { // the errors are accounted one by one below
		id := r.rec.start(fmt.Sprintf("%s.client-%d", name, c), parent, cycle)
		errs[c] = fn(c)
		r.rec.end(id)
		return nil
	})
	wall := time.Since(t0)
	for _, err := range errs {
		if err := r.op(name, err); err != nil {
			return wall, err
		}
	}
	return wall, nil
}

func (r *run) backupAll(parent, cycle int) ([clients]client.BackupStats, time.Duration, error) {
	var stats [clients]client.BackupStats
	wall, err := r.eachClient("backup", parent, cycle, func(c int) error {
		var err error
		stats[c], err = r.client(r.sys, c).Backup(r.jobs[c], r.trees[c].dir)
		return err
	})
	return stats, wall, err
}

func (r *run) restoreDir(c int) string {
	return filepath.Join(r.cfg.workDir, "restore", fmt.Sprintf("c%d", c))
}

// restoreAll restores every client's latest job into empty directories.
func (r *run) restoreAll(parent, cycle int) (time.Duration, error) {
	id := r.rec.start("restore", parent, cycle)
	defer r.rec.end(id)
	return r.eachClient("restore", id, cycle, func(c int) error {
		_, err := r.client(r.sys, c).Restore(r.jobs[c], r.restoreDir(c))
		return err
	})
}

// verifyAll compares each restored file's SHA-256 with its source and
// removes the copies.
func (r *run) verifyAll(parent, cycle int) error {
	id := r.rec.start("verify", parent, cycle)
	defer r.rec.end(id)
	var attempted, failed [clients]int
	err := concurrently(func(c int) (err error) {
		attempted[c], failed[c], err = verifyTree(r.trees[c], r.restoreDir(c))
		return err
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for c := range attempted {
		r.attempted += attempted[c]
		r.failed += failed[c]
		if failed[c] > 0 {
			fmt.Fprintf(r.cfg.log, "verify: %d of %d files of client %d differ from their source\n", failed[c], attempted[c], c)
		}
	}
	return os.RemoveAll(filepath.Join(r.cfg.workDir, "restore"))
}

// cycleStats is one backup → dedup-2 → restore → verify cycle.
type cycleStats struct {
	logical, wire, restored int64
	stored, recipes         int64 // growth of the container log and of the director's journal
	backup, dedup2, restore phase
}

func (c cycleStats) backupMBps() float64 { return mbps(c.logical, c.backup.wall) }

func (r *run) cycle(withSpans bool) (cycleStats, error) {
	w := r.cfg.w
	k := r.gen
	r.gen++
	rec := r.rec
	if !withSpans {
		r.rec = nil
		defer func() { r.rec = rec }()
	}
	root := r.rec.start("cycle", 0, k)
	defer r.rec.end(root)

	if w.freshStore {
		r.closeSystem()
		if err := os.RemoveAll(r.dataDir); err != nil {
			return cycleStats{}, err
		}
		if err := r.startSystem(r.newDataDir()); err != nil {
			return cycleStats{}, err
		}
	}
	for c, t := range r.trees {
		if w.tree {
			if _, err := t.mutate(derive(r.cfg.seed, 'm', uint64(c), uint64(k))); err != nil {
				return cycleStats{}, fmt.Errorf("mutating source: %w", err)
			}
		}
		if !w.sameJob {
			r.jobs[c] = fmt.Sprintf("run%d-%d", k, c)
		}
	}

	if r.cfg.trace {
		r.prevFPs = r.sys.Director.FilterFPs(r.jobs[0])
	}

	var cs cycleStats
	segBefore, journalBefore := r.diskBytes()

	// The untimed steps delete hundreds of MB (the previous DataDir, the
	// restored copies) and write the mutated sources; on a filesystem that
	// journals and discards, the next fsync would pay for that. Flush it
	// here, so the timed phases wait only for their own writes.
	syscall.Sync()
	// Likewise garbage from the previous phase is collected outside the
	// timers, so each phase pays only for what it allocates itself.
	runtime.GC()
	g0 := readGauge()
	id := r.rec.start("backup", root, k)
	stats, wall, err := r.backupAll(id, k)
	r.rec.end(id)
	if err != nil {
		return cs, err
	}
	g1 := readGauge()
	cs.backup = g0.until(g1, wall)
	for _, s := range stats {
		cs.logical += s.LogicalBytes
		cs.wire += s.TransferredBytes
	}

	runtime.GC()
	g1 = readGauge()
	id = r.rec.start("dedup2", root, k)
	t0 := time.Now()
	err = r.sys.RunDedup2()
	wall = time.Since(t0)
	r.rec.end(id)
	if err := r.op("dedup-2", err); err != nil {
		return cs, err
	}
	g2 := readGauge()
	cs.dedup2 = g1.until(g2, wall)

	// The chunk bytes come from the store's own counter; the files on disk
	// must agree with it.
	cs.stored = int64(cs.backup.obs["store_container_append_bytes_total"] + cs.dedup2.obs["store_container_append_bytes_total"])
	seg, journal := r.diskBytes()
	cs.recipes = journal - journalBefore
	var mismatch error
	if grew := seg - segBefore; grew != cs.stored {
		mismatch = fmt.Errorf("grew %d bytes on disk but the store counted %d", grew, cs.stored)
	}
	if err := r.op("container-log accounting", mismatch); err != nil {
		return cs, err
	}

	runtime.GC()
	g2 = readGauge()
	wall, err = r.restoreAll(root, k)
	if err != nil {
		return cs, err
	}
	cs.restore = g2.until(readGauge(), wall)
	if err := r.verifyAll(root, k); err != nil {
		return cs, err
	}
	for _, t := range r.trees {
		cs.restored += t.bytes
	}
	return cs, nil
}

// account turns one measured cycle into samples of every metric that is
// defined per cycle.
func (r *run) account(c cycleStats) {
	logical := float64(c.logical)
	e := r.e2e
	e.add("backup_MBps", c.backupMBps())
	e.add("ingest_total_MBps", mbps(c.logical, c.backup.wall+c.dedup2.wall))
	e.add("restore_MBps", mbps(c.restored, c.restore.wall))
	e.add("backup_cpu_s_per_GB", ratio(c.backup.cpu.Seconds(), logical/1e9))
	// Everything the cycle left on disk for good: its new chunks and its
	// file recipes. The recipes (~0.25 % of logical) keep the ratio off 0
	// where every chunk is a duplicate, so the driver's relative bound
	// catches the first duplicate stored twice.
	e.add("stored_per_logical", ratio(float64(c.stored+c.recipes), logical))
	e.add("wire_per_logical", ratio(float64(c.wire), logical))

	b, d, rs := c.backup.obs, c.dedup2.obs, c.restore.obs
	l := r.layer
	l.add("client.window_occupancy_mean", ratio(b["client_window_occupancy_sum"], b["client_window_occupancy_count"]))
	l.add("client.retries", b["client_backup_retries_total"]+rs["client_restore_retries_total"])
	hits, misses, inline := b["server_prefilter_hits_total"], b["server_prefilter_misses_total"], b["server_inline_dup_hits_total"]
	l.add("server.prefilter_hit_ratio", ratio(hits, hits+misses+inline))
	l.add("server.inline_hit_ratio", ratio(inline, hits+misses+inline))
	l.add("server.index_probes_per_kfp", ratio(b["store_index_lookups_total"], (hits+misses+inline)/1e3))
	l.add("server.dedup2_ms", float64(c.dedup2.wall.Microseconds())/1e3)
	l.add("server.dedup2_sil_s", d["server_dedup2_sil_seconds_sum"])
	l.add("server.dedup2_siu_s", d["server_dedup2_siu_seconds_sum"])
	l.add("store.wal_fsyncs_per_GB", ratio(b["store_wal_fsyncs_total"], logical/1e9))
	l.add("store.wal_fsync_busy_s", b["store_wal_fsync_seconds_sum"])
	walBytes := b["store_wal_append_bytes_total"]
	l.add("store.wal_bytes_per_logical", ratio(walBytes, logical))
	l.add("store.container_bytes_per_logical", ratio(float64(c.stored), logical))
	l.add("store.written_per_logical", ratio(walBytes+float64(c.stored), logical))
	l.add("tpds.region_scan_s", d["dedup2_region_scan_seconds_sum"])
	l.add("tpds.region_pack_s", d["dedup2_region_pack_seconds_sum"])
	l.add("tpds.region_commit_s", d["dedup2_region_commit_seconds_sum"])
	l.add("server.restore_container_loads_per_GB", ratio(rs["server_restore_container_loads_total"], float64(c.restored)/1e9))
	l.add("server.restore_index_lookups_per_kchunk", ratio(rs["server_restore_index_lookups_total"], rs["server_restore_chunks_total"]/1e3))
	l.add("server.restore_window_stalls", rs["server_restore_window_stalls_total"])
	l.add("runtime.backup_allocs_per_MB", ratio(float64(c.backup.allocs), logical/1e6))
	l.add("runtime.gc_pause_ms", float64((c.backup.pause+c.dedup2.pause+c.restore.pause).Microseconds())/1e3)
}

// reopenCheck is the durability gate: everything acknowledged so far must
// restore byte-for-byte from a deployment reopened on the same DataDir.
func (r *run) reopenCheck() error {
	r.closeSystem()
	if err := r.op("reopen", r.startSystem(r.dataDir)); err != nil {
		return err
	}
	rec := r.rec
	r.rec = nil
	defer func() { r.rec = rec }()
	if _, err := r.restoreAll(0, 0); err != nil {
		return err
	}
	return r.verifyAll(0, 0)
}
