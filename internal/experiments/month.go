package experiments

import (
	"fmt"
	"strings"
	"time"

	"debar/internal/chunklog"
	"debar/internal/container"
	"debar/internal/ddfs"
	"debar/internal/diskindex"
	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/prefilter"
	"debar/internal/tpds"
	"debar/internal/workload"
)

// MonthConfig parameterises the §6.1 single-server comparison: a
// HUSt-like month of backups processed by one DEBAR backup server and one
// DDFS server (Figures 6–9).
type MonthConfig struct {
	Scale   Scale
	Clients int // 8 in the paper
	Days    int // 31 in the paper
	// DailyBytes is the paper-scale average daily logical volume across
	// all clients (583 GB in the paper).
	DailyBytes int64
	// IndexBytes is the paper-scale disk index size (32 GB in §6.1).
	IndexBytes int64
	// CacheBytes is the paper-scale index-cache/prefilter memory (1 GB).
	CacheBytes int64
	Seed       int64
	// RunDDFS disables the baseline when false (faster sweeps).
	RunDDFS bool
}

// DefaultMonthConfig mirrors the paper's first experiment.
func DefaultMonthConfig() MonthConfig {
	return MonthConfig{
		Scale:      DefaultScale,
		Clients:    8,
		Days:       31,
		DailyBytes: 583 * gb,
		IndexBytes: 32 * gb,
		CacheBytes: 1 * gb,
		Seed:       1,
		RunDDFS:    true,
	}
}

// DayStats is one day of the month experiment (one row of Figures 6–9).
type DayStats struct {
	Day          int
	LogicalBytes int64 // offered by the clients
	LoggedBytes  int64 // survived the preliminary filter into the chunk log
	StoredBytes  int64 // written to containers by dedup-2 (0 on days without a run)
	Dedup2Ran    bool
	SIURan       bool
	Dedup1Daily  float64       // logical/logged (compression, Fig 7)
	Dedup1Cum    float64       // cumulative
	Dedup2Daily  float64       // log processed / stored for this run (Fig 7)
	Dedup2Cum    float64       // cumulative over dedup-2 runs
	DebarCum     float64       // cumulative logical/stored (Fig 7)
	Dedup1Thr    float64       // MB/s (Fig 8)
	Dedup1CumThr float64       // MB/s
	Dedup2Thr    float64       // MB/s for this run (Fig 9)
	Dedup2CumThr float64       // MB/s
	TotalCumThr  float64       // MB/s (Fig 8 "total")
	DDFSStored   int64         // bytes DDFS stored this day
	DDFSDaily    float64       // compression (Fig 7)
	DDFSCum      float64       // compression
	DDFSThr      float64       // MB/s (Fig 9)
	DDFSCumThr   float64       // MB/s
	Dedup1Time   time.Duration // scaled
	Dedup2Time   time.Duration // scaled
}

// MonthResult is the full month experiment output.
type MonthResult struct {
	Cfg  MonthConfig
	Days []DayStats

	TotalLogical int64
	TotalStored  int64
	DDFSStored   int64
	Dedup2Runs   int
	SIURuns      int

	// LPCMissRate and NewFrac feed the Figure 12 capacity model.
	DDFSLPCMissRate float64
	NewFrac         float64
}

// RunMonth executes the month experiment (Figures 6–9).
func RunMonth(cfg MonthConfig) (*MonthResult, error) {
	s := cfg.Scale
	if s <= 0 {
		s = DefaultScale
	}

	// Workload: per-client daily chunk volume at scale.
	perClientDaily := s.Chunks(cfg.DailyBytes / int64(cfg.Clients))
	mcfg := workload.DefaultMonth(cfg.Clients, cfg.Days, perClientDaily)
	mcfg.Seed = cfg.Seed
	month, err := workload.NewMonth(mcfg)
	if err != nil {
		return nil, err
	}

	// DEBAR server: index, chunk log, repository, NIC — each on its own
	// cost model as in the paper's testbed (two RAID controllers).
	indexDisk := disksim.NewDisk(disksim.DefaultRAID())
	logDisk := disksim.NewDisk(disksim.ChunkLogRAID())
	repoDisk := disksim.NewDisk(disksim.ChunkLogRAID())
	link := disksim.NewLink(disksim.DefaultNIC())

	ix, err := diskindex.New(diskindex.NewMemStore(0), indexConfigFor(cfg.IndexBytes, s), indexDisk)
	if err != nil {
		return nil, err
	}
	repo := container.NewMemRepository(true, repoDisk)
	cs := tpds.NewChunkStore(ix, repo, true, true) // async SIU with checking file
	log := chunklog.NewMem(true, logDisk)

	filterCap := int(prefilter.EntriesForBytes(cfg.CacheBytes / int64(s)))
	filter := prefilter.New(18, filterCap)
	session := tpds.NewDedup1Session(filter, log, link)

	cacheCap := indexcache.EntriesForBytes(cfg.CacheBytes / int64(s))
	cacheBits := uint(14)

	// DDFS server with the paper's memory budget at scale: 1 GB Bloom
	// filter (capacity 2^30 fingerprints at m/n=8), 256 MB write buffer,
	// 128 MB LPC.
	var dd *ddfs.Server
	var ddIndexDisk *disksim.Disk
	var ddLink *disksim.Link
	if cfg.RunDDFS {
		ddIndexDisk = disksim.NewDisk(disksim.DefaultRAID())
		ddLink = disksim.NewLink(disksim.DefaultNIC())
		ddIx, err := diskindex.New(diskindex.NewMemStore(0), indexConfigFor(cfg.IndexBytes, s), ddIndexDisk)
		if err != nil {
			return nil, err
		}
		ddRepo := container.NewMemRepository(true, nil)
		// 1 GB summary vector ⇔ 2^30 fingerprints at m/n = 8 (§6.1.3).
		ddCfg := ddfs.DefaultConfig((1 << 30) / int64(s))
		ddCfg.WriteBufferEntries = int((256 << 20) / int64(s) / fp.EntrySize)
		ddCfg.ContainerSize = container.DefaultSize
		dd, err = ddfs.New(ddCfg, ddIx, ddRepo, ddLink)
		if err != nil {
			return nil, err
		}
	}

	res := &MonthResult{Cfg: cfg}
	var pendingUndetermined []fp.FP
	var pendingUnreg []fp.Entry
	var cumLogged, cumProcessed, cumStored int64
	var cumDedup1Time, cumDedup2Time, cumDDFSTime time.Duration
	var prevDDFSStored int64

	// Job-chain filtering fingerprints: each client's previous day's
	// stream primes the filter group by group, in logical order and in
	// step with today's stream — the paper's technique for jobs larger
	// than the filter ("the filtering fingerprints can be divided into
	// multiple parts in their logical order and inserted into the filter
	// group by group", §5.1).
	yesterday := make([][]fp.FP, cfg.Clients)
	primeWindow := filterCap / (cfg.Clients * 4)
	if primeWindow < 64 {
		primeWindow = 64
	}

	for !month.Done() {
		day := month.Day()
		clientDays, err := month.Next()
		if err != nil {
			return nil, err
		}
		var ds DayStats
		ds.Day = day

		// ---- DEBAR dedup-1: all clients stream to the backup server.
		linkBefore := link.Clock.Now()
		logBefore := logDisk.Clock.Now()
		loggedBefore := log.Bytes()
		for _, cd := range clientDays {
			y := yesterday[cd.Client]
			cursor := 0
			for i, f := range cd.FPs {
				if len(y) > 0 {
					target := i*len(y)/len(cd.FPs) + primeWindow
					if target > len(y) {
						target = len(y)
					}
					for ; cursor < target; cursor++ {
						filter.Prime(y[cursor])
					}
				}
				if _, err := session.Offer(f, ChunkSize, nil); err != nil {
					return nil, err
				}
			}
			yesterday[cd.Client] = cd.FPs
		}
		dayUnd := session.Finish()
		pendingUndetermined = append(pendingUndetermined, dayUnd...)

		ds.LogicalBytes = int64(0)
		for _, cd := range clientDays {
			ds.LogicalBytes += int64(len(cd.FPs)) * ChunkSize
		}
		ds.LoggedBytes = log.Bytes() - loggedBefore
		ds.Dedup1Time = maxDur(link.Clock.Now()-linkBefore, logDisk.Clock.Now()-logBefore)

		// ---- dedup-2 trigger: run when the accumulated undetermined
		// fingerprints fill the index cache, or on the final day
		// ("DEBAR usually provides synchronous lookups for more than one
		// job", §5.2).
		runDedup2 := int64(len(pendingUndetermined)) >= cacheCap || month.Done()
		var d2time time.Duration
		if runDedup2 && len(pendingUndetermined) > 0 {
			ixBefore := indexDisk.Clock.Now()
			logBefore := logDisk.Clock.Now()
			d2res, unreg, err := cs.RunSILAndStore(pendingUndetermined, log, cacheBits)
			if err != nil {
				return nil, err
			}
			pendingUnreg = append(pendingUnreg, unreg...)
			pendingUndetermined = pendingUndetermined[:0]
			if err := log.Reset(); err != nil {
				return nil, err
			}
			res.Dedup2Runs++
			ds.Dedup2Ran = true
			ds.StoredBytes = d2res.Store.NewBytes
			processed := d2res.Store.NewBytes + d2res.Store.DupBytes
			cumProcessed += processed
			cumStored += d2res.Store.NewBytes

			// Asynchronous SIU: one SIU services several SILs (§5.4);
			// run it when the unregistered backlog fills the cache or at
			// month end.
			if int64(len(pendingUnreg)) >= cacheCap || month.Done() {
				if err := cs.RunSIU(pendingUnreg); err != nil {
					return nil, err
				}
				pendingUnreg = pendingUnreg[:0]
				res.SIURuns++
				ds.SIURan = true
			}
			d2time = (indexDisk.Clock.Now() - ixBefore) + (logDisk.Clock.Now() - logBefore)
			ds.Dedup2Time = d2time
			ds.Dedup2Daily = ratio(processed, d2res.Store.NewBytes)
			ds.Dedup2Thr = mbps(processed, d2time)
		}

		// ---- DDFS on the same day's streams.
		if dd != nil {
			ddBefore := ddLink.Clock.Now() + ddIndexDisk.Clock.Now()
			for _, cd := range clientDays {
				for _, f := range cd.FPs {
					if _, err := dd.Backup(f, ChunkSize, nil); err != nil {
						return nil, err
					}
				}
			}
			if err := dd.Finish(); err != nil { // daily buffer flush window
				return nil, err
			}
			ddTime := ddLink.Clock.Now() + ddIndexDisk.Clock.Now() - ddBefore
			cumDDFSTime += ddTime
			st := dd.Stats()
			ds.DDFSStored = st.StoredBytes - prevDDFSStored
			prevDDFSStored = st.StoredBytes
			ds.DDFSDaily = ratio(ds.LogicalBytes, ds.DDFSStored)
			ds.DDFSCum = ratio(res.TotalLogical+ds.LogicalBytes, st.StoredBytes)
			ds.DDFSThr = mbps(ds.LogicalBytes, ddTime)
			ds.DDFSCumThr = mbps(res.TotalLogical+ds.LogicalBytes, cumDDFSTime)
		}

		// ---- cumulative series.
		res.TotalLogical += ds.LogicalBytes
		cumLogged += ds.LoggedBytes
		cumDedup1Time += ds.Dedup1Time
		cumDedup2Time += d2time

		ds.Dedup1Daily = ratio(ds.LogicalBytes, ds.LoggedBytes)
		ds.Dedup1Cum = ratio(res.TotalLogical, cumLogged)
		ds.Dedup2Cum = ratio(cumProcessed, cumStored)
		ds.DebarCum = ratio(res.TotalLogical, cumStored)
		ds.Dedup1Thr = mbps(ds.LogicalBytes, ds.Dedup1Time)
		ds.Dedup1CumThr = mbps(res.TotalLogical, cumDedup1Time)
		ds.Dedup2CumThr = mbps(cumProcessed, cumDedup2Time)
		ds.TotalCumThr = mbps(res.TotalLogical, cumDedup1Time+cumDedup2Time)

		res.Days = append(res.Days, ds)
	}

	res.TotalStored = cumStored
	res.NewFrac = ratio(cumStored, res.TotalLogical)
	if dd != nil {
		st := dd.Stats()
		res.DDFSStored = st.StoredBytes
		if st.LPCHits+st.RandomLookups > 0 {
			res.DDFSLPCMissRate = float64(st.RandomLookups) / float64(st.LPCHits+st.RandomLookups)
		}
	}
	return res, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// FormatFig6 renders the logical-vs-stored capacity series.
func (r *MonthResult) FormatFig6() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: logical data backed up vs physical data stored (scale 1/%d, paper-scale GB)\n", r.Cfg.Scale)
	fmt.Fprintf(&b, "%4s %14s %16s %16s\n", "day", "logical(GB)", "DEBAR stored(GB)", "DDFS stored(GB)")
	var cumLog, cumStored, cumDDFS int64
	for _, d := range r.Days {
		cumLog += d.LogicalBytes
		cumStored += d.StoredBytes
		cumDDFS += d.DDFSStored
		fmt.Fprintf(&b, "%4d %14.1f %16.1f %16.1f\n", d.Day,
			paperGB(cumLog, r.Cfg.Scale), paperGB(cumStored, r.Cfg.Scale), paperGB(cumDDFS, r.Cfg.Scale))
	}
	fmt.Fprintf(&b, "paper: 17.09TB logical, 1.82TB stored (9.39:1) at day 31\n")
	return b.String()
}

// FormatFig7 renders the compression-ratio series.
func (r *MonthResult) FormatFig7() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: data compression ratios over time (scale 1/%d)\n", r.Cfg.Scale)
	fmt.Fprintf(&b, "%4s %9s %9s %9s %9s %9s %9s %9s\n",
		"day", "d1-daily", "d1-cum", "d2-daily", "d2-cum", "DEBARcum", "DDFSdaily", "DDFScum")
	for _, d := range r.Days {
		d2d := "-"
		if d.Dedup2Ran {
			d2d = fmt.Sprintf("%.2f", d.Dedup2Daily)
		}
		fmt.Fprintf(&b, "%4d %9.2f %9.2f %9s %9.2f %9.2f %9.2f %9.2f\n",
			d.Day, d.Dedup1Daily, d.Dedup1Cum, d2d, d.Dedup2Cum, d.DebarCum, d.DDFSDaily, d.DDFSCum)
	}
	fmt.Fprintf(&b, "paper: d1-cum ≈3.6, d2-cum ≈2.6, DEBAR cum ≈9.39, d2-daily 1.65→4.05\n")
	return b.String()
}

// FormatFig8 renders DEBAR throughput over time.
func (r *MonthResult) FormatFig8() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: DEBAR throughput over time (MB/s, scale-invariant)\n")
	fmt.Fprintf(&b, "%4s %10s %10s %10s %10s %10s\n",
		"day", "d1-daily", "d1-cum", "d2-daily", "d2-cum", "total-cum")
	for _, d := range r.Days {
		d2 := "-"
		if d.Dedup2Ran {
			d2 = fmt.Sprintf("%.1f", d.Dedup2Thr)
		}
		fmt.Fprintf(&b, "%4d %10.1f %10.1f %10s %10.1f %10.1f\n",
			d.Day, d.Dedup1Thr, d.Dedup1CumThr, d2, d.Dedup2CumThr, d.TotalCumThr)
	}
	fmt.Fprintf(&b, "paper: d1 daily 303–1100, d1 cum 641.6, total cum 329.2 MB/s\n")
	return b.String()
}

// FormatFig9 renders the DEBAR dedup-2 vs DDFS throughput comparison.
func (r *MonthResult) FormatFig9() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: throughput comparison, DEBAR dedup-2 vs DDFS (MB/s)\n")
	fmt.Fprintf(&b, "%4s %12s %12s %12s %12s\n", "day", "d2-daily", "d2-cum", "DDFS-daily", "DDFS-cum")
	for _, d := range r.Days {
		d2 := "-"
		if d.Dedup2Ran {
			d2 = fmt.Sprintf("%.1f", d.Dedup2Thr)
		}
		fmt.Fprintf(&b, "%4d %12s %12.1f %12.1f %12.1f\n", d.Day, d2, d.Dedup2CumThr, d.DDFSThr, d.DDFSCumThr)
	}
	fmt.Fprintf(&b, "paper: DEBAR d2 daily 170–206.8 cum ≈197; DDFS daily >155 cum ≈189 MB/s\n")
	return b.String()
}

func paperGB(scaled int64, s Scale) float64 {
	return float64(scaled*int64(s)) / float64(gb)
}
