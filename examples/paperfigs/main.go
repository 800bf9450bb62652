// paperfigs regenerates the tables and figures of the DEBAR paper's
// evaluation (§6) from the simulated-cluster experiments of
// internal/experiments and internal/overflow. It reproduces shapes, not
// this machine's throughput: the repo's benchmark is bench/.
//
// Usage:
//
//	go run ./examples/paperfigs -exp all          # everything (minutes)
//	go run ./examples/paperfigs -exp table1
//	go run ./examples/paperfigs -exp table2 -runs 10
//	go run ./examples/paperfigs -exp fig6|fig7|fig8|fig9     # the month experiment
//	go run ./examples/paperfigs -exp fig10|fig11             # SIL/SIU sweep
//	go run ./examples/paperfigs -exp fig12                   # capacity sweep
//	go run ./examples/paperfigs -exp fig13|fig14a|fig14b|fig15
//	go run ./examples/paperfigs -scale 256                   # coarser/faster
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"debar/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments (comma-separated): all, table1, table2, fig6..fig15")
	scale := flag.Int64("scale", int64(experiments.DefaultScale), "scale divisor S applied to all paper sizes")
	runs := flag.Int("runs", 5, "simulation runs per row (table2)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if err := run(strings.ToLower(*exp), experiments.Scale(*scale), *runs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(exp string, scale experiments.Scale, runs int, seed int64) error {
	selected := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	if want("table1") {
		fmt.Println(experiments.FormatTable1())
	}
	if want("table2") {
		out, err := experiments.FormatTable2(10, runs, seed)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	var month *experiments.MonthResult
	needMonth := want("fig6") || want("fig7") || want("fig8") || want("fig9") || want("fig12")
	if needMonth {
		cfg := experiments.DefaultMonthConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		var err error
		month, err = experiments.RunMonth(cfg)
		if err != nil {
			return fmt.Errorf("month experiment: %w", err)
		}
	}
	if want("fig6") {
		fmt.Println(month.FormatFig6())
	}
	if want("fig7") {
		fmt.Println(month.FormatFig7())
	}
	if want("fig8") {
		fmt.Println(month.FormatFig8())
	}
	if want("fig9") {
		fmt.Println(month.FormatFig9())
	}

	var sweep *experiments.SweepResult
	if want("fig10") || want("fig11") || want("fig12") {
		cfg := experiments.DefaultSweepConfig()
		cfg.Scale = scale
		var err error
		sweep, err = experiments.RunSweep(cfg)
		if err != nil {
			return fmt.Errorf("index sweep: %w", err)
		}
	}
	if want("fig10") {
		fmt.Println(sweep.FormatFig10())
	}
	if want("fig11") {
		fmt.Println(sweep.FormatFig11())
	}
	if want("fig12") {
		capres, err := experiments.RunCapacity(month, sweep)
		if err != nil {
			return fmt.Errorf("capacity sweep: %w", err)
		}
		fmt.Println(capres.Format())
	}

	clusterBase := experiments.DefaultClusterConfig()
	clusterBase.Scale = scale
	clusterBase.Seed = seed
	if want("fig13") {
		res, err := experiments.RunFig13(clusterBase, nil)
		if err != nil {
			return fmt.Errorf("fig13: %w", err)
		}
		fmt.Println(res.Format())
	}
	if want("fig14a") {
		res, err := experiments.RunFig14a(clusterBase, nil)
		if err != nil {
			return fmt.Errorf("fig14a: %w", err)
		}
		fmt.Println(res.Format())
	}
	if want("fig14b") {
		cfg := clusterBase
		cfg.Versions = 10
		res, err := experiments.RunFig14b(cfg)
		if err != nil {
			return fmt.Errorf("fig14b: %w", err)
		}
		fmt.Println(res.Format())
	}
	if want("fig15") {
		for _, part := range []int64{32 << 30, 64 << 30} {
			res, err := experiments.RunFig15(clusterBase, part, nil)
			if err != nil {
				return fmt.Errorf("fig15: %w", err)
			}
			fmt.Printf("(index part %d GB per server)\n%s\n", part>>30, res.Format())
		}
	}
	return nil
}
