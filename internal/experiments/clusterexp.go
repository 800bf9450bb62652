package experiments

import (
	"fmt"
	"strings"
	"time"

	"debar/internal/cluster"
	"debar/internal/container"
	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/prefilter"
	"debar/internal/tpds"
	"debar/internal/workload"
)

// ClusterConfig parameterises the multi-server experiments of §6.2
// (Figures 13, 14 and 15): 2^w backup servers, 4 backup clients per
// server, 16 storage nodes, synthetic fingerprint versions with ≈90%
// duplicates of which ≈30% are cross-stream.
type ClusterConfig struct {
	Scale          Scale
	W              uint  // 2^w servers
	ClientsPerSrv  int   // 4 in the paper
	Versions       int   // 10 in the paper
	VersionBytes   int64 // paper-scale bytes per version (50 GB)
	IndexPartBytes int64 // paper-scale per-server index part size
	CacheBytes     int64 // paper-scale index cache (1 GB)
	StorageNodes   int   // 16 in the paper
	DupFrac        float64
	CrossFrac      float64
	Seed           int64
}

// DefaultClusterConfig mirrors the 16-server runs.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Scale:          DefaultScale,
		W:              4,
		ClientsPerSrv:  4,
		Versions:       10,
		VersionBytes:   50 * gb,
		IndexPartBytes: 32 * gb,
		CacheBytes:     1 * gb,
		StorageNodes:   16,
		DupFrac:        0.90,
		CrossFrac:      0.30,
		Seed:           3,
	}
}

// ClusterRunResult summarises one multi-server mode (one x-axis point of
// Figures 13–15).
type ClusterRunResult struct {
	Cfg          ClusterConfig
	Servers      int
	TotalIndexTB float64 // paper-scale total index size
	CapacityTB   float64 // supported physical capacity at 8 KB chunks

	LogicalBytes int64
	StoredBytes  int64

	Dedup1Time  time.Duration // scaled, max over servers per day summed
	Dedup2Time  time.Duration // scaled
	PSILTime    time.Duration
	PSIUTime    time.Duration
	PSILChecked int64
	PSIUUpdated int64

	Dedup1Thr float64 // MB/s aggregate (scale-invariant)
	Dedup2Thr float64
	TotalThr  float64
	PSILSpeed float64 // fingerprints/s aggregate
	PSIUSpeed float64
}

// RunCluster executes one multi-server write experiment: all streams back
// up Versions versions through dedup-1 on their assigned servers; dedup-2
// (PSIL + storing + PSIU) runs whenever the accumulated undetermined
// fingerprints fill the index caches, with asynchronous PSIU (§5.4: "2
// PSIL and 1 PSIU" per mode).
func RunCluster(cfg ClusterConfig) (*ClusterRunResult, error) {
	s := cfg.Scale
	if s <= 0 {
		s = DefaultScale
	}
	nSrv := 1 << cfg.W
	nStreams := nSrv * cfg.ClientsPerSrv
	if nStreams > 64 {
		return nil, fmt.Errorf("experiments: %d streams exceed the 64 subspaces", nStreams)
	}

	repo, err := container.NewClusterRepository(cfg.StorageNodes, true, disksim.DefaultRAID())
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		W:           cfg.W,
		IndexBits:   indexBitsFor(cfg.IndexPartBytes, s),
		IndexBlocks: 1,
		DiskModel:   disksim.DefaultRAID(),
		NetModel:    disksim.DefaultNIC(),
		MetaOnly:    true,
		Async:       true,
	}, repo)
	if err != nil {
		return nil, err
	}

	chunksPerVersion := s.Chunks(cfg.VersionBytes)
	streams := make([]*workload.VersionStream, nStreams)
	for i := range streams {
		streams[i], err = workload.NewVersionStream(workload.VersionConfig{
			Stream:           i,
			Streams:          nStreams,
			ChunksPerVersion: chunksPerVersion,
			DupFrac:          cfg.DupFrac,
			CrossFrac:        cfg.CrossFrac,
			Seed:             cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}

	filterCap := int(prefilter.EntriesForBytes(cfg.CacheBytes / int64(s)))
	filters := make([]*prefilter.Filter, nSrv)
	sessions := make([]*tpds.Dedup1Session, nSrv)
	for i, node := range cl.Nodes {
		filters[i] = prefilter.New(16, filterCap)
		sessions[i] = tpds.NewDedup1Session(filters[i], node.Log, node.Link)
	}

	cacheCap := indexcache.EntriesForBytes(cfg.CacheBytes / int64(s))
	res := &ClusterRunResult{Cfg: cfg, Servers: nSrv}
	res.TotalIndexTB = float64(cfg.IndexPartBytes) * float64(nSrv) / float64(tb)
	// A 32 GB index part holds 2^26×20 entries ⇒ ≈8 TB at 80% target
	// utilisation (§5.2, Figure 15's capacity axis).
	res.CapacityTB = res.TotalIndexTB / (32.0 / 1024) * 8

	pendingUnd := make([][]fp.FP, nSrv)
	pendingUnreg := make([][]fp.Entry, nSrv)
	var pendingCount int64
	psilRuns := 0

	runPSILStore := func(deferSIU bool) error {
		d2res, unreg, err := cl.RunDedup2(pendingUnd, 14, deferSIU)
		if err != nil {
			return err
		}
		res.PSILTime += d2res.PSIL.Elapsed
		res.PSILChecked += d2res.PSIL.Checked
		res.StoredBytes += d2res.Store.NewBytes
		res.Dedup2Time += d2res.TotalTime
		if deferSIU {
			for o := range unreg {
				pendingUnreg[o] = append(pendingUnreg[o], unreg[o]...)
			}
		} else {
			res.PSIUTime += d2res.PSIU.Elapsed
			res.PSIUUpdated += d2res.PSIU.Updated
		}
		for i := range pendingUnd {
			pendingUnd[i] = pendingUnd[i][:0]
			cl.Nodes[i].Log.Reset()
		}
		pendingCount = 0
		psilRuns++
		return nil
	}

	// Previous-version fingerprints prime the filters group by group, in
	// step with each stream (§5.1).
	prevVersion := make([][]fp.FP, nStreams)
	primeWindow := filterCap / (cfg.ClientsPerSrv * 4)
	if primeWindow < 64 {
		primeWindow = 64
	}

	for v := 0; v < cfg.Versions; v++ {
		d1snap := cl.Snapshot()
		for st, vs := range streams {
			srv := st % nSrv
			version := vs.Version(v)
			y := prevVersion[st]
			cursor := 0
			for i, f := range version {
				if len(y) > 0 {
					target := i*len(y)/len(version) + primeWindow
					if target > len(y) {
						target = len(y)
					}
					for ; cursor < target; cursor++ {
						filters[srv].Prime(y[cursor])
					}
				}
				if _, err := sessions[srv].Offer(f, ChunkSize, nil); err != nil {
					return nil, err
				}
				res.LogicalBytes += ChunkSize
			}
			prevVersion[st] = version
		}
		for srv := range sessions {
			und := sessions[srv].Finish()
			pendingUnd[srv] = append(pendingUnd[srv], und...)
			pendingCount += int64(len(und))
		}
		res.Dedup1Time += cl.Elapsed(d1snap)

		if pendingCount >= cacheCap*int64(nSrv) || v == cfg.Versions-1 {
			// Asynchronous PSIU: defer on every other PSIL (§6.2: "2
			// dedup-2 processes including 2 PSIL and 1 PSIU").
			deferSIU := psilRuns%2 == 0 && v != cfg.Versions-1
			if err := runPSILStore(deferSIU); err != nil {
				return nil, err
			}
			if !deferSIU {
				// Merge any previously deferred entries into this PSIU.
				if hasEntries(pendingUnreg) {
					psiu, err := cl.PSIU(pendingUnreg)
					if err != nil {
						return nil, err
					}
					res.PSIUTime += psiu.Elapsed
					res.PSIUUpdated += psiu.Updated
					for i := range pendingUnreg {
						pendingUnreg[i] = pendingUnreg[i][:0]
					}
				}
			}
		}
	}
	// Final deferred PSIU, if any.
	if hasEntries(pendingUnreg) {
		psiu, err := cl.PSIU(pendingUnreg)
		if err != nil {
			return nil, err
		}
		res.PSIUTime += psiu.Elapsed
		res.PSIUUpdated += psiu.Updated
		res.Dedup2Time += psiu.Elapsed
	}

	res.Dedup1Thr = mbps(res.LogicalBytes, res.Dedup1Time)
	res.Dedup2Thr = mbps(res.LogicalBytes, res.Dedup2Time)
	res.TotalThr = mbps(res.LogicalBytes, res.Dedup1Time+res.Dedup2Time)
	res.PSILSpeed = disksim.Rate(res.PSILChecked, res.PSILTime)
	res.PSIUSpeed = disksim.Rate(res.PSIUUpdated, res.PSIUTime)
	return res, nil
}

func hasEntries(sets [][]fp.Entry) bool {
	for _, s := range sets {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// Fig13Result sweeps total index size at 16 servers (PSIL/PSIU speeds).
type Fig13Result struct {
	Rows []*ClusterRunResult
}

// RunFig13 measures PSIL and PSIU speeds for total index sizes 0.5–8 TB
// with 16 backup servers, 1 GB cache each.
func RunFig13(base ClusterConfig, partSizes []int64) (*Fig13Result, error) {
	if len(partSizes) == 0 {
		partSizes = []int64{32 * gb, 64 * gb, 128 * gb, 256 * gb, 512 * gb}
	}
	out := &Fig13Result{}
	for _, ps := range partSizes {
		cfg := base
		cfg.IndexPartBytes = ps
		r, err := RunCluster(cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// Format renders Figure 13.
func (r *Fig13Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: PSIL/PSIU speeds, 16 servers, 1GB cache each (kilo-fingerprints/s)\n")
	fmt.Fprintf(&b, "%14s %12s %12s\n", "index total(TB)", "PSIL", "PSIU")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14.1f %12.0f %12.0f\n", row.TotalIndexTB, row.PSILSpeed/1e3, row.PSIUSpeed/1e3)
	}
	fmt.Fprintf(&b, "paper: 0.5TB → 3710/1524 kfps/s; 8TB → 338/135 kfps/s\n")
	return b.String()
}

// Fig14aResult is the aggregate write-throughput sweep.
type Fig14aResult struct {
	Rows []*ClusterRunResult
}

// RunFig14a measures aggregate write throughput for the same sweep.
func RunFig14a(base ClusterConfig, partSizes []int64) (*Fig14aResult, error) {
	f13, err := RunFig13(base, partSizes)
	if err != nil {
		return nil, err
	}
	return &Fig14aResult{Rows: f13.Rows}, nil
}

// Format renders Figure 14(a).
func (r *Fig14aResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14(a): aggregate write throughput, 16 servers (GB/s)\n")
	fmt.Fprintf(&b, "%14s %10s %10s %10s\n", "index total(TB)", "dedup-1", "dedup-2", "total")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14.1f %10.2f %10.2f %10.2f\n", row.TotalIndexTB,
			row.Dedup1Thr/1e3, row.Dedup2Thr/1e3, row.TotalThr/1e3)
	}
	fmt.Fprintf(&b, "paper: dedup-1 >9 GB/s; total 4.3 (0.5TB), 2.5 (4TB), 1.7 (8TB) GB/s\n")
	return b.String()
}

// Fig14bResult is the multi-server read experiment.
type Fig14bResult struct {
	Versions []float64 // MB/s per version
}

// RunFig14b restores every version stream through LPC-equipped restorers
// and measures aggregate read throughput per version (Figure 14(b)).
// It must run against the cluster state left by RunCluster; to keep the
// harness self-contained it re-runs a write pass first.
func RunFig14b(cfg ClusterConfig) (*Fig14bResult, error) {
	s := cfg.Scale
	if s <= 0 {
		s = DefaultScale
	}
	nSrv := 1 << cfg.W
	nStreams := nSrv * cfg.ClientsPerSrv

	// Write pass (same construction as RunCluster, kept hot for reads).
	repo, err := container.NewClusterRepository(cfg.StorageNodes, true, disksim.DefaultRAID())
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Config{
		W:           cfg.W,
		IndexBits:   indexBitsFor(cfg.IndexPartBytes, s),
		IndexBlocks: 1,
		DiskModel:   disksim.DefaultRAID(),
		NetModel:    disksim.DefaultNIC(),
		MetaOnly:    true,
	}, repo)
	if err != nil {
		return nil, err
	}
	chunksPerVersion := s.Chunks(cfg.VersionBytes)
	streams := make([]*workload.VersionStream, nStreams)
	for i := range streams {
		streams[i], err = workload.NewVersionStream(workload.VersionConfig{
			Stream:           i,
			Streams:          nStreams,
			ChunksPerVersion: chunksPerVersion,
			DupFrac:          cfg.DupFrac,
			CrossFrac:        cfg.CrossFrac,
			Seed:             cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	und := make([][]fp.FP, nSrv)
	for v := 0; v < cfg.Versions; v++ {
		seen := make([]map[fp.FP]bool, nSrv)
		for i := range seen {
			seen[i] = map[fp.FP]bool{}
		}
		for st, vs := range streams {
			srv := st % nSrv
			for _, f := range vs.Version(v) {
				if !seen[srv][f] {
					seen[srv][f] = true
					und[srv] = append(und[srv], f)
					_ = cl.Nodes[srv].Log.Append(f, ChunkSize, nil)
				}
			}
		}
		if _, _, err := cl.RunDedup2(und, 14, false); err != nil {
			return nil, err
		}
		for i := range und {
			und[i] = und[i][:0]
			cl.Nodes[i].Log.Reset()
		}
	}

	// Read pass: per-version, all streams restore in parallel; aggregate
	// throughput = bytes / max(storage-node + index clocks delta).
	out := &Fig14bResult{}
	// The paper's 128 MB LPC holds 16 containers; we halve it so scaled
	// versions (a few dozen containers) cannot be trivially cached whole.
	const lpcCap = 8
	restorers := make([]*tpds.Restorer, nStreams)
	for i := range restorers {
		srv := i % nSrv
		restorers[i] = tpds.NewRestorer(cl.Nodes[srv].Chunk.Index, repo, lpcCap)
	}
	for v := 0; v < cfg.Versions; v++ {
		before := snapshotNodes(repo, cl)
		var bytes int64
		for st, vs := range streams {
			r := restorers[st]
			for _, f := range vs.Version(v) {
				// Index lookups happen at the fingerprint's home server
				// under performance scaling; point the restorer there.
				r.Index = cl.Nodes[cl.HomeOf(f)].Chunk.Index
				if _, err := r.Chunk(f); err != nil {
					return nil, fmt.Errorf("experiments: fig14b restore v%d: %w", v, err)
				}
				bytes += ChunkSize
			}
		}
		elapsed := elapsedNodes(repo, cl, before)
		out.Versions = append(out.Versions, mbps(bytes, elapsed))
	}
	return out, nil
}

func snapshotNodes(repo *container.ClusterRepository, cl *cluster.Cluster) []time.Duration {
	var snaps []time.Duration
	for _, n := range repo.Nodes() {
		if n.Disk() != nil {
			snaps = append(snaps, n.Disk().Clock.Now())
		} else {
			snaps = append(snaps, 0)
		}
	}
	for _, n := range cl.Nodes {
		if d := n.Chunk.Index.Disk(); d != nil {
			snaps = append(snaps, d.Clock.Now())
		} else {
			snaps = append(snaps, 0)
		}
	}
	return snaps
}

func elapsedNodes(repo *container.ClusterRepository, cl *cluster.Cluster, snaps []time.Duration) time.Duration {
	var worst time.Duration
	i := 0
	for _, n := range repo.Nodes() {
		if n.Disk() != nil {
			if d := n.Disk().Clock.Now() - snaps[i]; d > worst {
				worst = d
			}
		}
		i++
	}
	for _, n := range cl.Nodes {
		if d := n.Chunk.Index.Disk(); d != nil {
			if dd := d.Clock.Now() - snaps[i]; dd > worst {
				worst = dd
			}
		}
		i++
	}
	return worst
}

// Format renders Figure 14(b).
func (r *Fig14bResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14(b): aggregate read throughput per version (MB/s)\n")
	fmt.Fprintf(&b, "%8s %12s\n", "version", "read MB/s")
	for i, thr := range r.Versions {
		fmt.Fprintf(&b, "%8d %12.0f\n", i+1, thr)
	}
	fmt.Fprintf(&b, "paper: 1620 (v1), 1548 (v2), ≈1520 stable thereafter\n")
	return b.String()
}

// Fig15Result sweeps the server count (write throughput & capacity).
type Fig15Result struct {
	Rows []*ClusterRunResult
}

// RunFig15 runs modes (x, y) for x ∈ {1,2,4,8,16} servers and the given
// per-server index part size (32 or 64 GB in the paper).
func RunFig15(base ClusterConfig, partBytes int64, ws []uint) (*Fig15Result, error) {
	if len(ws) == 0 {
		ws = []uint{0, 1, 2, 3, 4}
	}
	out := &Fig15Result{}
	for _, w := range ws {
		cfg := base
		cfg.W = w
		cfg.IndexPartBytes = partBytes
		cfg.ClientsPerSrv = base.ClientsPerSrv
		r, err := RunCluster(cfg)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// Format renders Figure 15 for one part size.
func (r *Fig15Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: write throughput and capacity vs number of servers\n")
	fmt.Fprintf(&b, "%8s %14s %14s\n", "servers", "total MB/s", "capacity(TB)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.0f %14.0f\n", row.Servers, row.TotalThr, row.CapacityTB)
	}
	fmt.Fprintf(&b, "paper: both scale linearly with server count (≈4300 MB/s and 128TB at 16×32GB)\n")
	return b.String()
}
