// Package cluster implements DEBAR's multi-server operation (paper §2,
// §5.2, §5.4): a set of 2^w backup servers, where server k holds disk
// index part k (the fingerprints whose first w bits equal k), cooperating
// on parallel sequential index lookups (PSIL) and updates (PSIU).
//
// PSIL proceeds in three steps (Figure 5):
//
//  1. each server partitions its undetermined fingerprints by the first w
//     bits and the servers exchange subsets all-to-all, so server k ends
//     up with exactly the fingerprints its index part covers;
//  2. all servers run SIL on their local parts in parallel;
//  3. the servers exchange lookup results so each origin learns which of
//     its own fingerprints are new.
//
// PSIU is the same dance for index updates. Both run the real SIL/SIU
// code concurrently (one goroutine per server) while the exchange and
// disk costs accrue on per-server simulated clocks; aggregate latency is
// the maximum over servers.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/diskindex"
	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/tpds"
)

// Node is one backup server in the cluster.
type Node struct {
	ID    int
	Chunk *tpds.ChunkStore // owns index part ID and the repository handle
	Link  *disksim.Link    // NIC for client traffic and peer exchange
	Log   *chunklog.Mem    // local chunk log (dedup-1 output)
}

// Cluster is a set of 2^w backup servers.
type Cluster struct {
	W     uint
	Nodes []*Node
	// DedupCross designates a single storing origin per cross-stream-new
	// fingerprint instead of the paper's faithful "every origin stores
	// its copy" behaviour. Off by default; used as an ablation.
	DedupCross bool
}

// Config assembles a homogeneous cluster.
type Config struct {
	W             uint // 2^w servers
	IndexBits     uint // bucket bits of each index *part*
	IndexBlocks   int
	DiskModel     disksim.DiskModel // zero disables index-disk accounting
	NetModel      disksim.NetModel  // zero disables link accounting
	ContainerSize int
	MetaOnly      bool
	Async         bool // checking fingerprint files on each server
}

// New builds the cluster over a shared chunk repository.
func New(cfg Config, repo container.Repository) (*Cluster, error) {
	n := 1 << cfg.W
	if cfg.W > 6 {
		return nil, fmt.Errorf("cluster: w=%d creates %d servers; max 64", cfg.W, n)
	}
	c := &Cluster{W: cfg.W}
	for i := 0; i < n; i++ {
		var disk *disksim.Disk
		if cfg.DiskModel != (disksim.DiskModel{}) {
			disk = disksim.NewDisk(cfg.DiskModel)
		}
		ix, err := diskindex.New(diskindex.NewMemStore(0), diskindex.Config{
			BucketBits:   cfg.IndexBits,
			BucketBlocks: cfg.IndexBlocks,
			PrefixSkip:   cfg.W,
		}, disk)
		if err != nil {
			return nil, fmt.Errorf("cluster: index part %d: %w", i, err)
		}
		cs := tpds.NewChunkStore(ix, repo, cfg.MetaOnly, cfg.Async)
		if cfg.ContainerSize > 0 {
			cs.ContainerSize = cfg.ContainerSize
		}
		var link *disksim.Link
		if cfg.NetModel != (disksim.NetModel{}) {
			link = disksim.NewLink(cfg.NetModel)
		}
		var logDisk *disksim.Disk
		if cfg.DiskModel != (disksim.DiskModel{}) {
			logDisk = disksim.NewDisk(cfg.DiskModel) // separate chunk-log RAID (§6 testbed)
		}
		c.Nodes = append(c.Nodes, &Node{
			ID:    i,
			Chunk: cs,
			Link:  link,
			Log:   chunklog.NewMem(cfg.MetaOnly, logDisk),
		})
	}
	return c, nil
}

// HomeOf returns the server whose index part covers f.
func (c *Cluster) HomeOf(f fp.FP) int { return int(f.Prefix(c.W)) }

// Size returns the number of servers.
func (c *Cluster) Size() int { return len(c.Nodes) }

// ClockSnapshot captures every per-node simulated clock, for elapsed-time
// (max over nodes) measurements around a phase.
type ClockSnapshot struct {
	index []time.Duration
	link  []time.Duration
}

// Snapshot records the current clocks.
func (c *Cluster) Snapshot() ClockSnapshot {
	s := ClockSnapshot{
		index: make([]time.Duration, len(c.Nodes)),
		link:  make([]time.Duration, len(c.Nodes)),
	}
	for i, n := range c.Nodes {
		if d := n.Chunk.Index.Disk(); d != nil {
			s.index[i] = d.Clock.Now()
		}
		if n.Link != nil {
			s.link[i] = n.Link.Clock.Now()
		}
	}
	return s
}

// Elapsed returns the per-phase latency since snap: the maximum over nodes
// of (index-disk delta + link delta) — servers run in parallel, so the
// slowest one defines the phase (§5.2).
func (c *Cluster) Elapsed(snap ClockSnapshot) time.Duration {
	var worst time.Duration
	for i, n := range c.Nodes {
		var t time.Duration
		if d := n.Chunk.Index.Disk(); d != nil {
			t += d.Clock.Now() - snap.index[i]
		}
		if n.Link != nil {
			t += n.Link.Clock.Now() - snap.link[i]
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// exchangeMatrix accumulates all-to-all transfer volumes so the whole
// exchange is charged as one batched message per (from, to) pair — the
// servers ship their subsets in bulk, not one fingerprint at a time.
type exchangeMatrix struct {
	n     int
	bytes []int64 // n×n, row-major [from*n+to]
}

func newExchangeMatrix(n int) *exchangeMatrix {
	return &exchangeMatrix{n: n, bytes: make([]int64, n*n)}
}

func (m *exchangeMatrix) add(from, to int, bytes int64) {
	if from != to {
		m.bytes[from*m.n+to] += bytes
	}
}

// charge applies the accumulated volumes: sender and receiver links both
// carry the bytes, one message per non-empty pair.
func (m *exchangeMatrix) charge(nodes []*Node) {
	for from := 0; from < m.n; from++ {
		for to := 0; to < m.n; to++ {
			b := m.bytes[from*m.n+to]
			if b == 0 {
				continue
			}
			if l := nodes[from].Link; l != nil {
				l.Transfer(b, 1)
			}
			if l := nodes[to].Link; l != nil {
				l.Transfer(b, 1)
			}
		}
	}
}

// PSILResult reports one PSIL pass.
type PSILResult struct {
	Checked   int64         // undetermined fingerprints examined
	Dups      int64         // resolved as already stored
	New       int64         // survivors
	Elapsed   time.Duration // max over servers
	PerOrigin []map[fp.FP]bool
}

// PSIL runs a parallel sequential index lookup. undetermined[o] holds
// origin server o's undetermined fingerprint file. The result's
// PerOrigin[o] maps each of origin o's fingerprints that it should treat
// as new (and therefore store from its chunk log).
func (c *Cluster) PSIL(undetermined [][]fp.FP, cacheBits uint) (PSILResult, error) {
	if len(undetermined) != len(c.Nodes) {
		return PSILResult{}, fmt.Errorf("cluster: %d undetermined sets for %d servers",
			len(undetermined), len(c.Nodes))
	}
	snap := c.Snapshot()

	// Step 1: route fingerprints to their home servers (with exchange
	// accounting); remember every origin that offered each fingerprint.
	caches := make([]*indexcache.Cache, len(c.Nodes))
	origins := make([]map[fp.FP][]int, len(c.Nodes))
	for k := range caches {
		caches[k] = indexcache.New(cacheBits, 0)
		origins[k] = make(map[fp.FP][]int)
	}
	var checked int64
	xm := newExchangeMatrix(len(c.Nodes))
	for o, set := range undetermined {
		for _, f := range set {
			checked++
			k := c.HomeOf(f)
			xm.add(o, k, fp.Size)
			if _, err := caches[k].Insert(f); err != nil {
				return PSILResult{}, fmt.Errorf("cluster: caching at server %d: %w", k, err)
			}
			origins[k][f] = append(origins[k][f], o)
		}
	}
	xm.charge(c.Nodes)

	// Step 2: parallel SIL, one goroutine per server.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		dups int64
		errs []error
	)
	for k, node := range c.Nodes {
		wg.Add(1)
		go func(k int, node *Node) {
			defer wg.Done()
			d, err := tpds.SIL(node.Chunk.Index, caches[k], node.Chunk.ScanBuckets)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("cluster: SIL at server %d: %w", k, err))
				return
			}
			dups += d
		}(k, node)
	}
	wg.Wait()
	if len(errs) > 0 {
		return PSILResult{}, errs[0]
	}

	// Step 2b: checking-file dedup for asynchronous PSIU (§5.4).
	for k, node := range c.Nodes {
		if node.Chunk.Checking != nil {
			dups += node.Chunk.Checking.FilterSILResult(caches[k])
		}
	}

	// Step 3: exchange results back to origins.
	res := PSILResult{Checked: checked, Dups: dups}
	res.PerOrigin = make([]map[fp.FP]bool, len(c.Nodes))
	for o := range res.PerOrigin {
		res.PerOrigin[o] = make(map[fp.FP]bool)
	}
	xm = newExchangeMatrix(len(c.Nodes))
	for k := range c.Nodes {
		caches[k].ForEach(func(n indexcache.Node) bool {
			res.New++
			offered := origins[k][n.FP]
			if c.DedupCross && len(offered) > 1 {
				offered = offered[:1] // designate one storer (ablation mode)
			}
			for _, o := range offered {
				xm.add(k, o, fp.Size+1)
				res.PerOrigin[o][n.FP] = true
			}
			return true
		})
	}
	xm.charge(c.Nodes)
	res.Elapsed = c.Elapsed(snap)
	return res, nil
}

// PSIUResult reports one PSIU pass.
type PSIUResult struct {
	Updated int64
	Elapsed time.Duration
}

// PSIU runs a parallel sequential index update. unregistered[o] holds the
// entries origin o produced during chunk storing; they are routed to their
// home servers and merged into the index parts in parallel.
func (c *Cluster) PSIU(unregistered [][]fp.Entry) (PSIUResult, error) {
	if len(unregistered) != len(c.Nodes) {
		return PSIUResult{}, fmt.Errorf("cluster: %d unregistered sets for %d servers",
			len(unregistered), len(c.Nodes))
	}
	snap := c.Snapshot()

	routed := make([][]fp.Entry, len(c.Nodes))
	var total int64
	xm := newExchangeMatrix(len(c.Nodes))
	for o, set := range unregistered {
		for _, e := range set {
			k := c.HomeOf(e.FP)
			xm.add(o, k, fp.EntrySize)
			routed[k] = append(routed[k], e)
			total++
		}
	}
	xm.charge(c.Nodes)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for k, node := range c.Nodes {
		wg.Add(1)
		go func(k int, node *Node) {
			defer wg.Done()
			if err := node.Chunk.RunSIU(routed[k]); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("cluster: SIU at server %d: %w", k, err))
				mu.Unlock()
			}
		}(k, node)
	}
	wg.Wait()
	if len(errs) > 0 {
		return PSIUResult{}, errs[0]
	}
	return PSIUResult{Updated: total, Elapsed: c.Elapsed(snap)}, nil
}

// Dedup2Result summarises a full cluster dedup-2 pass.
type Dedup2Result struct {
	PSIL       PSILResult
	Store      tpds.StoreResult
	PSIU       PSIUResult
	StoreTime  time.Duration
	TotalTime  time.Duration
	SkippedSIU bool // async mode: SIU deferred
}

// RunDedup2 performs a full cluster dedup-2: PSIL over each node's
// undetermined fingerprints, parallel chunk storing from each node's own
// chunk log, and PSIU (unless deferSIU, in which case the caller collects
// pending entries for a later pass — the asynchronous mode of §5.4).
// It returns the per-node unregistered entries for deferred PSIU.
func (c *Cluster) RunDedup2(undetermined [][]fp.FP, cacheBits uint, deferSIU bool) (Dedup2Result, [][]fp.Entry, error) {
	var res Dedup2Result
	start := c.Snapshot()

	psil, err := c.PSIL(undetermined, cacheBits)
	if err != nil {
		return res, nil, err
	}
	res.PSIL = psil

	// Parallel chunk storing: each origin stores the new chunks from its
	// own log.
	storeSnap := c.Snapshot()
	unreg := make([][]fp.Entry, len(c.Nodes))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for o, node := range c.Nodes {
		wg.Add(1)
		go func(o int, node *Node) {
			defer wg.Done()
			cache := indexcache.New(cacheBits, 0)
			for f := range psil.PerOrigin[o] {
				cache.Insert(f)
			}
			sr, err := tpds.StoreChunks(node.Log, cache, node.Chunk.Repo,
				node.Chunk.ContainerSize, node.Chunk.MetaOnly)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("cluster: storing at server %d: %w", o, err))
				return
			}
			res.Store.NewChunks += sr.NewChunks
			res.Store.NewBytes += sr.NewBytes
			res.Store.DupChunks += sr.DupChunks
			res.Store.DupBytes += sr.DupBytes
			res.Store.Containers += sr.Containers
			for _, e := range cache.Collect() {
				if e.CID != fp.NilContainer {
					unreg[o] = append(unreg[o], e)
				}
			}
		}(o, node)
	}
	wg.Wait()
	if len(errs) > 0 {
		return res, nil, errs[0]
	}
	// The checking fingerprint file lives with the index part that is
	// still owed the update, i.e. on the HOME server of each entry, where
	// the next PSIL's FilterSILResult runs (§5.4).
	for o := range unreg {
		for _, e := range unreg[o] {
			if cf := c.Nodes[c.HomeOf(e.FP)].Chunk.Checking; cf != nil {
				cf.Add([]fp.Entry{e})
			}
		}
	}
	res.StoreTime = c.Elapsed(storeSnap)

	if deferSIU {
		res.SkippedSIU = true
		res.TotalTime = c.Elapsed(start)
		return res, unreg, nil
	}
	psiu, err := c.PSIU(unreg)
	if err != nil {
		return res, nil, err
	}
	res.PSIU = psiu
	res.TotalTime = c.Elapsed(start)
	return res, nil, nil
}
