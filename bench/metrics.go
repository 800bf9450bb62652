package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"debar/internal/obs"
)

// metricDef names one reported number. The catalogue below is the single
// definition; BENCHMARK.json repeats it for the driver and a test keeps
// the two identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
	Floor  float64 // -compare only: an absolute worsening below this is never a regression
}

func (d metricDef) boundString() string {
	switch {
	case d.Floor > 0:
		return fmt.Sprintf("max(%.0f%%, %g)", 100*d.Bound, d.Floor)
	case d.Bound > 0:
		return fmt.Sprintf("%.0f%%", 100*d.Bound)
	case d.Name == failedOps.Name:
		return "0"
	}
	return "-"
}

// endToEnd is what a user of the backup system sees. A bound is the
// issue's (10 % on rates and CPU, 2 % on byte ratios, 20 % on memory, 25 %
// on set-up) or, where that is larger, three times the widest spread
// measured between ten seeds on this sandbox, up to the driver's maximum of
// 25 % (README.md, "Steadiness"): the driver refuses a benchmark whose own
// spread comes near its bound.
var endToEnd = []metricDef{
	{Name: "backup_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_total_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "restore_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "backup_cpu_s_per_GB", Unit: "s/GB", Better: "lower", Bound: 0.23},
	{Name: "stored_per_logical", Unit: "ratio", Better: "lower", Bound: 0.03, Floor: 0.005},
	{Name: "wire_per_logical", Unit: "ratio", Better: "lower", Bound: 0.03, Floor: 0.005},
	{Name: "peak_rss_MB", Unit: "MB", Better: "lower", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// failedOps is the ninth end-to-end metric. It is 0 on every workload, and
// the driver's bounds are shares of a median that is never 0, so the driver
// reads it from the result line's attempted and failed; the table and
// -compare report it by name with the bound 0: any rise is a regression.
var failedOps = metricDef{Name: "failed_ops_ratio", Unit: "ratio", Better: "lower"}

var perLayer = []metricDef{
	{Name: "chunker.split_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "chunker.mean_chunk_B", Unit: "B", Better: "lower"},
	{Name: "fp.sha1_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "client.window_occupancy_mean", Unit: "count", Better: "higher"},
	{Name: "client.backup_1c_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "client.scale_2v1", Unit: "ratio", Better: "higher"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "proto.chunkbatch_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "proto.restorebatch_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "proto.fpbatch_us", Unit: "us", Better: "lower"},
	{Name: "proto.control_us", Unit: "us", Better: "lower"},
	{Name: "server.prefilter_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.inline_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.index_probes_per_kfp", Unit: "1/kfp", Better: "lower"},
	{Name: "server.dedup2_ms", Unit: "ms", Better: "lower"},
	{Name: "server.dedup2_sil_s", Unit: "s", Better: "lower"},
	{Name: "server.dedup2_siu_s", Unit: "s", Better: "lower"},
	{Name: "server.mem_backup_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "store.durable_gap", Unit: "ratio", Better: "lower"},
	{Name: "prefilter.test_ns", Unit: "ns", Better: "lower"},
	{Name: "store.wal_append_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "store.wal_fsyncs_per_GB", Unit: "1/GB", Better: "lower"},
	{Name: "store.wal_fsync_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.wal_bytes_per_logical", Unit: "ratio", Better: "lower"},
	{Name: "store.container_bytes_per_logical", Unit: "ratio", Better: "lower"},
	{Name: "store.written_per_logical", Unit: "ratio", Better: "lower"},
	{Name: "store.container_append_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "diskindex.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "diskindex.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "diskindex.utilization", Unit: "ratio", Better: "lower"},
	{Name: "tpds.sil_ms", Unit: "ms", Better: "lower"},
	{Name: "tpds.sil_workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "tpds.store_ms", Unit: "ms", Better: "lower"},
	{Name: "tpds.siu_ms", Unit: "ms", Better: "lower"},
	{Name: "tpds.region_scan_s", Unit: "s", Better: "lower"},
	{Name: "tpds.region_pack_s", Unit: "s", Better: "lower"},
	{Name: "tpds.region_commit_s", Unit: "s", Better: "lower"},
	{Name: "tpds.restorer_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lpc.avoided_lookup_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.restore_container_loads_per_GB", Unit: "1/GB", Better: "lower"},
	{Name: "server.restore_index_lookups_per_kchunk", Unit: "1/kchunk", Better: "lower"},
	{Name: "server.restore_window_stalls", Unit: "count", Better: "lower"},
	{Name: "director.putfile_us", Unit: "us", Better: "lower"},
	{Name: "runtime.backup_allocs_per_MB", Unit: "1/MB", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// summary is a sample reduced the way the driver reduces its own runs:
// median plus the quartiles of Python's statistics.quantiles(n=4).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	quantile := func(i int) float64 {
		if n == 1 {
			return v[0]
		}
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = quantile(1), quantile(2), quantile(3)
	return s
}

// samples collects per-cycle (or per-setup) observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) summarize(defs []metricDef) map[string]summary {
	out := make(map[string]summary, len(defs))
	for _, d := range defs {
		sum := summarize(s[d.Name])
		sum.Unit = d.Unit
		out[d.Name] = sum
	}
	return out
}

// gauge reads everything the phase accounting differences: the process
// clock, CPU, allocator and the obs registry every DEBAR layer counts into.
type gauge struct {
	cpu    time.Duration
	allocs uint64
	pause  uint64
	obs    map[string]float64
}

// readGauge stops the world (ReadMemStats) and allocates; call it only
// between phases, never inside a timed one.
func readGauge() gauge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return gauge{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
		pause:  ms.PauseTotalNs,
		obs:    obs.Default.Snapshot().Flatten(),
	}
}

// phase is the difference of two gauges around one timed phase.
type phase struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	pause  time.Duration
	obs    map[string]float64
}

func (g gauge) until(end gauge, wall time.Duration) phase {
	p := phase{
		wall:   wall,
		cpu:    end.cpu - g.cpu,
		allocs: end.allocs - g.allocs,
		pause:  time.Duration(end.pause - g.pause),
		obs:    make(map[string]float64, len(end.obs)),
	}
	for k, v := range end.obs {
		p.obs[k] = v - g.obs[k]
	}
	return p
}

// peakRSS is VmHWM: the high-water mark of the whole driver process,
// which holds the clients, the director and the server.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mbps(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }
