package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed uint64) (flat, grown [32]byte) {
		f, err := genFlat(t.TempDir(), derive(seed, 'd', 0), 4, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := genTree(t.TempDir(), derive(seed, 'd', 0), 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		for g := uint64(0); g < 3; g++ {
			if _, err := tr.mutate(derive(seed, 'm', 0, g)); err != nil {
				t.Fatal(err)
			}
		}
		return f.digest(), tr.digest()
	}
	f1, t1 := build(7)
	f2, t2 := build(7)
	f3, t3 := build(8)
	if f1 != f2 || t1 != t2 {
		t.Error("same seed produced different trees")
	}
	if f1 == f3 || t1 == t3 {
		t.Error("different seeds produced the same tree")
	}
}

func TestClientsGetDistinctData(t *testing.T) {
	a, err := genFlat(t.TempDir(), derive(1, 'd', 0), 1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genFlat(t.TempDir(), derive(1, 'd', 1), 1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() == b.digest() {
		t.Error("clients 0 and 1 share a dataset; cross-client dedup would hide work")
	}
}

func TestMutationNewByteFraction(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr, err := genTree(t.TempDir(), derive(seed, 'd', 0), 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		for g := uint64(0); g < 5; g++ {
			before := tr.bytes
			fresh, err := tr.mutate(derive(seed, 'm', 0, g))
			if err != nil {
				t.Fatal(err)
			}
			if frac := float64(fresh) / float64(before); frac < 0.04 || frac > 0.07 {
				t.Errorf("seed %d generation %d: %.1f %% new bytes, want 4–7 %%", seed, g+2, 100*frac)
			}
		}
		// The recorded digests must describe what is on disk.
		if attempted, failed, err := verifyTree(tr, tr.dir); err != nil || failed != 0 || attempted != len(tr.sums) {
			t.Errorf("seed %d: tree does not verify against itself: %d of %d failed, err %v", seed, failed, attempted, err)
		}
	}
}

func TestVerifyTreeCountsEveryKindOfDamage(t *testing.T) {
	src, err := genTree(t.TempDir(), derive(1, 'd', 0), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	paths := src.paths()
	if len(paths) < 3 {
		t.Fatalf("tree too small: %d files", len(paths))
	}
	at := func(rel string) string { return filepath.Join(src.dir, filepath.FromSlash(rel)) }
	data, err := os.ReadFile(at(paths[0]))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(at(paths[0]), data, 0o644); err != nil { // differing
		t.Fatal(err)
	}
	if err := os.Remove(at(paths[1])); err != nil { // missing
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src.dir, "stray"), nil, 0o644); err != nil { // unexpected
		t.Fatal(err)
	}
	attempted, failed, err := verifyTree(src, src.dir)
	if err != nil || attempted != len(paths) || failed != 3 {
		t.Errorf("got %d failed of %d (err %v), want 3 of %d", failed, attempted, err, len(paths))
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	s = summarize([]float64{1, 2, 4, 8, 16, 32})
	if s.Q1 != 1.75 || s.Median != 6 || s.Q3 != 20 {
		t.Errorf("got %+v", s)
	}
	if s := summarize([]float64{3}); s.Q1 != 3 || s.Median != 3 || s.Q3 != 3 {
		t.Errorf("single sample: got %+v", s)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40}, // two overlapping children cover 10–60
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent: 90–100
		{ID: 5, Parent: 2, StartNs: 10, EndNs: 40},  // covers its parent entirely
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 0, 3: 30, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "y", Better: "lower", Bound: 0.10}
	floored := metricDef{Name: "z", Better: "lower", Bound: 0.02, Floor: 0.005}
	tight := summary{Median: 100, Q1: 99, Q3: 101, N: 6}
	tiny := summary{Median: 0.003, Q1: 0.003, Q3: 0.003, N: 6}
	wide := summary{Median: 100, Q1: 85, Q3: 115, N: 6} // a median of 6 such cycles spreads by 15 %
	for _, c := range []struct {
		d    metricDef
		a    summary
		b    float64
		want string
	}{
		{higher, tight, 95, "ok"},
		{higher, tight, 89, "regressed"},
		{higher, tight, 150, "ok"},
		{lower, tight, 105, "ok"},
		{lower, tight, 111, "regressed"},
		{lower, tight, 50, "ok"},
		{higher, wide, 50, "unresolved"},
		{floored, tiny, 0.0079, "ok"}, // 2 % of 0.003 is below the floor
		{floored, tiny, 0.0081, "regressed"},
		{floored, summary{N: 6}, 0.004, "ok"}, // a baseline of 0 is judged by the floor alone
		{floored, summary{N: 6}, 0.006, "regressed"},
	} {
		if got := verdict(c.d, c.a, summary{Median: c.b, N: 6}); got != c.want {
			t.Errorf("%s %s: baseline %v, candidate %v: got %s, want %s", c.d.Name, c.d.Better, c.a.Median, c.b, got, c.want)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the driver's description of the
// benchmark identical to what the program reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Seconds   int      `json:"run_seconds"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Seconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.Seconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the driver allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, at 2 × 2 MiB for
// one cycle: the whole path from generator to result line against the
// real client, server, store and probes, so that API drift in any layer
// the benchmark touches fails tier-1 rather than the next benchmark run.
func TestSmoke(t *testing.T) {
	start := time.Now()
	byName := map[string]map[string]summary{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				w: w, seed: 1, seconds: 60, trace: trace,
				perClient: smokeBytes, minCycles: 1, maxCycles: 1, setups: 1,
				workDir: filepath.Join(t.TempDir(), "work"), traceDir: t.TempDir(), log: io.Discard,
			}
			if trace {
				cfg.maxCycles = 2
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs, got := endToEnd, res.EndToEnd
			if trace {
				defs, got = perLayer, res.PerLayer
				spans, err := os.ReadFile(filepath.Join(cfg.traceDir, "trace-"+w.Name+".json"))
				if err != nil || !bytes.Contains(spans, []byte(`"probe.chunker"`)) || !bytes.Contains(spans, []byte(`"backup.client-1"`)) {
					t.Errorf("%s: span file missing or without the expected spans (err %v)", w.Name, err)
				}
			} else {
				byName[w.Name] = got
			}
			for _, d := range defs {
				if s, ok := got[d.Name]; !ok || s.N == 0 {
					t.Errorf("%s (trace %v): metric %s not reported", w.Name, trace, d.Name)
				}
			}
			if _, err := os.Stat(cfg.workDir); !os.IsNotExist(err) {
				t.Errorf("%s: work directory left behind", w.Name)
			}
		}
	}
	// The workloads must separate the regimes even at smoke size.
	within := func(w, m string, lo, hi float64) {
		if v := byName[w][m].Median; v < lo || v > hi {
			t.Errorf("%s %s = %.4g, want within [%g, %g]", w, m, v, lo, hi)
		}
	}
	within("fresh", "wire_per_logical", 0.99, 1.02)
	within("fresh", "stored_per_logical", 0.99, 1.02)
	within("xjob-sil", "wire_per_logical", 0.99, 1.02)
	within("xjob-sil", "stored_per_logical", 0.0005, 0.01)
	within("xjob-inline", "wire_per_logical", 0.0005, 0.01)
	within("xjob-inline", "stored_per_logical", 0.0005, 0.01)
	within("incr", "wire_per_logical", 0.02, 0.30)
	within("incr", "stored_per_logical", 0.02, 0.30)
	// About 4 s on the 2-core sandbox, 20 s under -race; logged, not
	// asserted, since a slower machine is not a defect.
	t.Logf("smoke took %v", time.Since(start))
}
