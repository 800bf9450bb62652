package experiments

import (
	"strings"
	"testing"
)

// tinyMonth returns a fast configuration for tests: heavily scaled.
func tinyMonth() MonthConfig {
	cfg := DefaultMonthConfig()
	cfg.Scale = 4096
	cfg.Days = 10
	return cfg
}

func TestRunMonthShape(t *testing.T) {
	res, err := RunMonth(tinyMonth())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 10 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.TotalLogical == 0 || res.TotalStored == 0 {
		t.Fatal("no data processed")
	}
	// Global compression in the paper's neighbourhood (9.39:1).
	overall := float64(res.TotalLogical) / float64(res.TotalStored)
	if overall < 3 || overall > 25 {
		t.Fatalf("overall compression %.2f implausible", overall)
	}
	// dedup-1 cumulative compression near 3.6:1 (paper Figure 7).
	last := res.Days[len(res.Days)-1]
	if last.Dedup1Cum < 2 || last.Dedup1Cum > 6 {
		t.Fatalf("dedup-1 cum compression %.2f, paper ≈3.6", last.Dedup1Cum)
	}
	// DEBAR and DDFS must store nearly the same physical volume (Fig 6).
	diff := float64(res.DDFSStored-res.TotalStored) / float64(res.TotalStored)
	if diff < -0.2 || diff > 0.2 {
		t.Fatalf("DDFS stored %.0f vs DEBAR %.0f: differ by %.0f%%",
			float64(res.DDFSStored), float64(res.TotalStored), diff*100)
	}
	// dedup-2 ran several times but not every day (paper: 14 of 31).
	if res.Dedup2Runs < 1 || res.Dedup2Runs >= len(res.Days) {
		t.Fatalf("dedup-2 ran %d times over %d days", res.Dedup2Runs, len(res.Days))
	}
	if res.SIURuns > res.Dedup2Runs {
		t.Fatalf("SIU runs %d exceed SIL runs %d", res.SIURuns, res.Dedup2Runs)
	}
}

func TestRunMonthThroughputShape(t *testing.T) {
	res, err := RunMonth(tinyMonth())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Days[len(res.Days)-1]
	// dedup-1 cumulative throughput beats the NIC (preliminary filtering
	// multiplies effective bandwidth; paper: 641.6 vs 210 MB/s).
	if last.Dedup1CumThr < 250 {
		t.Fatalf("dedup-1 cum thr %.1f MB/s, want >250 (filter not helping)", last.Dedup1CumThr)
	}
	// Total cumulative throughput should exceed DDFS's (paper 329 vs 189).
	if last.TotalCumThr < last.DDFSCumThr {
		t.Fatalf("DEBAR total %.1f ≤ DDFS %.1f MB/s", last.TotalCumThr, last.DDFSCumThr)
	}
	// DDFS is capped by the NIC (≈210 MB/s) minus flush time.
	if last.DDFSCumThr > 215 {
		t.Fatalf("DDFS cum thr %.1f MB/s exceeds its NIC", last.DDFSCumThr)
	}
	if last.DDFSCumThr < 100 {
		t.Fatalf("DDFS cum thr %.1f MB/s implausibly low", last.DDFSCumThr)
	}
}

func TestMonthFormatters(t *testing.T) {
	res, err := RunMonth(tinyMonth())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"fig6": res.FormatFig6(), "fig7": res.FormatFig7(),
		"fig8": res.FormatFig8(), "fig9": res.FormatFig9(),
	} {
		if !strings.Contains(s, "paper") || len(strings.Split(s, "\n")) < 5 {
			t.Fatalf("%s formatting too thin:\n%s", name, s)
		}
	}
}

func TestRunSweepMatchesPaperTimes(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Scale = 8192
	cfg.IndexSizes = []int64{32 * gb, 512 * gb}
	cfg.CacheSizes = []int64{1 * gb}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper Figure 10: 32 GB → SIL 2.53 min, SIU 6.16 min (±15%).
	p32 := res.Points[0]
	if m := p32.SILTime.Minutes(); m < 2.1 || m > 3.0 {
		t.Fatalf("SIL(32GB) = %.2f min, paper 2.53", m)
	}
	if m := p32.SIUTime.Minutes(); m < 5.2 || m > 7.1 {
		t.Fatalf("SIU(32GB) = %.2f min, paper 6.16", m)
	}
	// 512 GB → 38.98 / 97.07 min.
	p512 := res.Points[1]
	if m := p512.SILTime.Minutes(); m < 33 || m > 45 {
		t.Fatalf("SIL(512GB) = %.2f min, paper 38.98", m)
	}
	if m := p512.SIUTime.Minutes(); m < 83 || m > 112 {
		t.Fatalf("SIU(512GB) = %.2f min, paper 97.07", m)
	}
	// Figure 11: speeds beat random lookup by orders of magnitude.
	if p32.SILSpeed < 50*res.RandomLookup {
		t.Fatalf("SIL speed %.0f not ≫ random %.0f", p32.SILSpeed, res.RandomLookup)
	}
	if p512.SIUSpeed < 5*res.RandomUpdate {
		t.Fatalf("SIU speed %.0f not ≫ random %.0f", p512.SIUSpeed, res.RandomUpdate)
	}
	if !strings.Contains(res.FormatFig10(), "SIL") || !strings.Contains(res.FormatFig11(), "rand-look") {
		t.Fatal("sweep formatters broken")
	}
}

func TestRunCapacityShape(t *testing.T) {
	month, err := RunMonth(tinyMonth())
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultSweepConfig()
	scfg.Scale = 8192
	scfg.CacheSizes = []int64{1 * gb}
	sweep, err := RunSweep(scfg)
	if err != nil {
		t.Fatal(err)
	}
	capres, err := RunCapacity(month, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(capres.Points) != 5 {
		t.Fatalf("points = %d", len(capres.Points))
	}
	// DDFS collapses past 8 TB: the 128 TB point must be a small
	// fraction of the 8 TB point (paper: "under 28%").
	first, last := capres.Points[0], capres.Points[len(capres.Points)-1]
	if last.DDFS > first.DDFS*0.4 {
		t.Fatalf("DDFS at 128TB (%.1f) not collapsed vs 8TB (%.1f)", last.DDFS, first.DDFS)
	}
	// DEBAR degrades gracefully: at 128 TB it retains most throughput
	// and beats DDFS by a wide margin (the paper's headline crossover).
	if last.DebarTotal < 3*last.DDFS {
		t.Fatalf("DEBAR at 128TB (%.1f) not ≫ DDFS (%.1f)", last.DebarTotal, last.DDFS)
	}
	if first.DebarTotal < last.DebarTotal {
		t.Fatal("DEBAR throughput should decrease with capacity")
	}
	if !strings.Contains(capres.Format(), "DEBAR-total") {
		t.Fatal("capacity formatter broken")
	}
	if _, err := RunCapacity(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func tinyCluster() ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.Scale = 8192
	cfg.W = 2
	cfg.ClientsPerSrv = 2
	cfg.Versions = 3
	cfg.StorageNodes = 4
	return cfg
}

func TestRunClusterShape(t *testing.T) {
	res, err := RunCluster(tinyCluster())
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 4 {
		t.Fatalf("servers = %d", res.Servers)
	}
	if res.LogicalBytes == 0 || res.StoredBytes == 0 {
		t.Fatal("no data moved")
	}
	if res.StoredBytes >= res.LogicalBytes {
		t.Fatal("no deduplication achieved")
	}
	// ≈90% duplicates → stored ≈ (1 + 0.1×(V-1))/V of logical per stream.
	ratio := float64(res.StoredBytes) / float64(res.LogicalBytes)
	if ratio > 0.6 {
		t.Fatalf("stored/logical = %.2f, expected ≤0.6 at 90%% dup", ratio)
	}
	if res.PSILSpeed <= 0 || res.PSIUSpeed <= 0 {
		t.Fatalf("speeds: PSIL %.0f PSIU %.0f", res.PSILSpeed, res.PSIUSpeed)
	}
	if res.TotalThr <= 0 || res.Dedup1Thr < res.TotalThr {
		t.Fatalf("throughputs: d1 %.1f total %.1f", res.Dedup1Thr, res.TotalThr)
	}
}

func TestFig13SpeedsDecreaseWithIndexSize(t *testing.T) {
	base := tinyCluster()
	res, err := RunFig13(base, []int64{32 * gb, 128 * gb})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[1].PSILSpeed >= res.Rows[0].PSILSpeed {
		t.Fatalf("PSIL speed did not fall with index size: %.0f → %.0f",
			res.Rows[0].PSILSpeed, res.Rows[1].PSILSpeed)
	}
	if !strings.Contains(res.Format(), "PSIL") {
		t.Fatal("fig13 formatter broken")
	}
	// Figure 14(a) is the same sweep's write throughputs.
	for _, row := range res.Rows {
		if row.Dedup1Thr < row.TotalThr {
			t.Fatalf("%.1f TB index: dedup-1 %.1f MB/s below total %.1f MB/s",
				row.TotalIndexTB, row.Dedup1Thr, row.TotalThr)
		}
	}
	if !strings.Contains((&Fig14aResult{Rows: res.Rows}).Format(), "dedup-1") {
		t.Fatal("fig14a formatter broken")
	}
}

func TestFig15ScalesWithServers(t *testing.T) {
	base := tinyCluster()
	base.ClientsPerSrv = 2
	res, err := RunFig15(base, 32*gb, []uint{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	one, four := res.Rows[0], res.Rows[1]
	if four.TotalThr < one.TotalThr*2 {
		t.Fatalf("4 servers %.0f MB/s not ≥2x 1 server %.0f MB/s", four.TotalThr, one.TotalThr)
	}
	if four.CapacityTB != one.CapacityTB*4 {
		t.Fatalf("capacity did not scale: %f vs %f", four.CapacityTB, one.CapacityTB)
	}
	if !strings.Contains(res.Format(), "servers") {
		t.Fatal("fig15 formatter broken")
	}
}

func TestFig14bReadStable(t *testing.T) {
	cfg := tinyCluster()
	cfg.Versions = 4
	// A version must span several 8 MB containers or LPC trivially caches
	// whole versions; 1/1024 scale gives ≈6 containers per version.
	cfg.Scale = 1024
	res, err := RunFig14b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions) != 4 {
		t.Fatalf("versions = %d", len(res.Versions))
	}
	for i, thr := range res.Versions {
		if thr <= 0 {
			t.Fatalf("version %d throughput %.1f", i+1, thr)
		}
	}
	// Later versions must not beat the all-new first version: duplicate
	// chunks spread over old containers cost extra loads (the paper's
	// fragmentation effect; v1 1620 → later ≈1520 MB/s).
	last := res.Versions[len(res.Versions)-1]
	if last > res.Versions[0]*1.25 {
		t.Fatalf("read throughput rose over versions: %v", res.Versions)
	}
	if !strings.Contains(res.Format(), "version") {
		t.Fatal("fig14b formatter broken")
	}
}

func TestTableFormatters(t *testing.T) {
	t1 := FormatTable1()
	if !strings.Contains(t1, "Pr(D)") {
		t.Fatalf("table1:\n%s", t1)
	}
	t2, err := FormatTable2(14, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2, "eta@paper-n") {
		t.Fatalf("table2:\n%s", t2)
	}
}

func TestScaleHelpers(t *testing.T) {
	s := Scale(128)
	if s.Bytes(1280) != 10 {
		t.Fatal("Bytes")
	}
	if s.Bytes(1) != 1 {
		t.Fatal("Bytes floor")
	}
	if s.Chunks(128*ChunkSize) != 1 {
		t.Fatal("Chunks")
	}
	if s.PaperTime(1) != 128 {
		t.Fatal("PaperTime")
	}
	if indexBitsFor(32*gb, 1) != 26 {
		t.Fatalf("indexBitsFor(32GB, S=1) = %d, want 26 (§5.2)", indexBitsFor(32*gb, 1))
	}
}
