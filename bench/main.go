// Command bench is the DEBAR backup-cycle benchmark: four workloads, each a
// closed loop of backup → dedup-2 → restore → verify cycles against an
// in-process durable deployment (debar.StartLocal), reported as end-to-end
// metrics (untraced) or per-layer metrics (traced). See README.md.
//
//	bench -workload fresh -seed 1 -seconds 30 -trace 0   one workload; last stdout line is the result
//	bench -seed 1 -out result.json                       all four, traced and untraced, one child process each
//	bench -compare A.json B.json                         verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// One run is three set-ups (the first a warm-up), one warm-up cycle and
// five to eight measured cycles of 2 × 128 MiB: the measured cycles go on
// past minCycles only while -seconds are unspent. The sizes are constants,
// so two result files of the same seed always describe the same work.
const (
	perClientBytes = 128 << 20
	smokeBytes     = 2 << 20
	minCycles      = 5
	maxCycles      = 8
	defaultSeconds = 15
	setupRepeats   = 3
	workDir        = ".bench_build/work"
)

func main() {
	code, err := realMain(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// errIncorrect ends a run whose operations or comparisons failed, or a
// comparison that found a regression, after its output has been printed.
var errIncorrect = errors.New("failed operations or regressed metrics, see above")

func realMain(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload only and print the driver's result line (default: all, one process each)")
		seed    = fs.Int64("seed", 1, "the only input to data generation and mutation choice")
		seconds = fs.Float64("seconds", defaultSeconds, "measurement budget per workload")
		trace   = fs.Int("trace", 0, "1: record spans, run the layer probes and report per-layer metrics instead of end-to-end ones")
		smoke   = fs.Bool("smoke", false, "2 × 2 MiB, one cycle, no warm-up: checks that everything runs, measures nothing")
		out     = fs.String("out", "", "also write the full result (medians, quartiles, n) to this file")
		compare = fs.Bool("compare", false, "compare two -out files of all workloads, given as arguments; exit 1 if any metric regressed")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has printed it
	}
	var err error
	switch {
	case *compare && fs.NArg() != 2:
		return 2, errors.New("usage: bench -compare A.json B.json")
	case *compare:
		err = compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	case *name == "":
		err = runAll(args, *out, stdout, stderr)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		cfg := config{
			w: w, seed: uint64(*seed), seconds: *seconds, trace: *trace != 0,
			perClient: perClientBytes, minCycles: minCycles, maxCycles: maxCycles,
			warmup: 1, setups: setupRepeats,
			workDir:  filepath.Join(workDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid())),
			traceDir: filepath.Join("bench", "out"), log: stderr,
		}
		if *smoke {
			cfg.perClient, cfg.minCycles, cfg.maxCycles, cfg.warmup, cfg.setups = smokeBytes, 1, 1, 0, 1
		}
		if cfg.trace {
			// setup_s is an end-to-end metric; a traced run reports none.
			cfg.setups = 1
			// Spans are recorded on every second cycle, and
			// trace.overhead_pct compares the two halves: run them all.
			cfg.maxCycles = max(cfg.maxCycles, 2)
			cfg.minCycles = cfg.maxCycles
		}
		err = runOne(cfg, *out, stdout, stderr)
	}
	if err != nil {
		return 1, err
	}
	return 0, nil
}

// runOne runs one workload in this process: the table goes to stderr,
// the driver's result line to stdout.
func runOne(cfg config, out string, stdout, stderr io.Writer) error {
	// The layers log through slog; a benchmark run wants none of it.
	slog.SetDefault(slog.New(slog.DiscardHandler))
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printTable(stderr, res)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(stdout).Encode(driverLine(res)); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// driverLine is the one-line result the benchmark driver parses: the
// metric values are the medians.
func driverLine(res result) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, group := range []map[string]summary{res.EndToEnd, res.PerLayer} {
		for name, s := range group {
			metrics[name] = value{s.Median, s.Unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// printTable prints every metric by name with its unit, direction and,
// for end-to-end metrics, the regression bound.
func printTable(w io.Writer, res result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s\tseed %d\tcycles %d\tattempted %d\tfailed %d\n", res.Workload, res.Seed, res.Cycles, res.Attempted, res.Failed)
	fmt.Fprintln(tw, "metric\tmedian\tq1\tq3\tn\tunit\tbetter\tbound")
	row := func(d metricDef, s summary) {
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t%s\t%s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit, d.Better, d.boundString())
	}
	for _, d := range endToEnd {
		if s, ok := res.EndToEnd[d.Name]; ok {
			row(d, s)
		}
	}
	if res.EndToEnd != nil {
		f := res.failedOpsRatio()
		row(failedOps, summary{Median: f, Q1: f, Q3: f, N: 1})
	}
	for _, d := range perLayer {
		if s, ok := res.PerLayer[d.Name]; ok {
			row(d, s)
		}
	}
	tw.Flush()
}

// report is what -out writes when all workloads run: one result per
// workload, traced and untraced merged.
type report struct {
	Seed      uint64            `json:"seed"`
	Workloads map[string]result `json:"workloads"`
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own, so that peak RSS and the process-global obs
// counters are per workload.
func runAll(args []string, out string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp := filepath.Join(workDir, fmt.Sprintf("all-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rep := report{Workloads: map[string]result{}}
	for _, w := range workloads {
		var merged result
		for _, trace := range []string{"0", "1"} {
			file := filepath.Join(tmp, w.Name+"-"+trace+".json")
			// Later flags win, so the child sees the caller's seed and budget
			// with these three overridden.
			cmd := exec.Command(self, append(append([]string{}, args...), "-workload", w.Name, "-trace", trace, "-out", file)...)
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", w.Name, trace, err)
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				return err
			}
			if trace == "0" {
				merged = res
			} else {
				merged.PerLayer = res.PerLayer
				merged.Attempted += res.Attempted
			}
		}
		rep.Seed = merged.Seed
		rep.Workloads[w.Name] = merged
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// reports of the same benchmark, A the baseline and B the candidate.
func compareFiles(pathA, pathB string, stdout io.Writer) error {
	var a, b report
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	regressed := false
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		// Medians of different inputs or sizes are not two measurements of
		// one thing.
		if ra.Seed != rb.Seed || ra.BytesPerClient != rb.BytesPerClient {
			return fmt.Errorf("%s: A ran seed %d at %d bytes per client, B seed %d at %d: not comparable",
				name, ra.Seed, ra.BytesPerClient, rb.Seed, rb.BytesPerClient)
		}
		for _, d := range endToEnd {
			sa, sb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			v := verdict(d, sa, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%s\t%s\n",
				name, d.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*ratio(sb.Median-sa.Median, sa.Median), d.boundString(), v)
		}
		// Bound 0: any rise, and a candidate that attempted nothing, regressed.
		fa, fb := ra.failedOpsRatio(), rb.failedOpsRatio()
		v := "ok"
		if fb > fa || rb.Attempted == 0 {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\t%s\t%.5g (%d of %d)\t%.5g (%d of %d)\t\t%s\t%s\n",
			name, failedOps.Name, fa, ra.Failed, ra.Attempted, fb, rb.Failed, rb.Attempted, failedOps.boundString(), v)
	}
	tw.Flush()
	if regressed {
		return errIncorrect
	}
	return nil
}

// verdict applies the benchmark's own rule: B regressed if its median is
// worse than A's by more than the bound (a share of A's median, or the
// metric's absolute floor where that is larger). When A's own run-to-run
// spread is wider than the bound the pair cannot be resolved either way.
// One report holds one run, so that spread is estimated from the run's
// cycles: the inter-quartile range of a median of n samples is about
// 1.2533/√n of the samples' own (the standard error of the median).
func verdict(d metricDef, a, b summary) string {
	if a.N == 0 || b.N == 0 {
		return "unresolved"
	}
	worse := b.Median - a.Median
	if d.Better == "higher" {
		worse = -worse
	}
	bound := max(d.Bound*a.Median, d.Floor)
	spread := 1.2533 * (a.Q3 - a.Q1) / math.Sqrt(float64(a.N))
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "ok"
	}
}
