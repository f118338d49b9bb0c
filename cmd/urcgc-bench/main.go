// Command urcgc-bench regenerates the tables and figures of the paper's
// evaluation (Section 6) from the operational protocol implementations.
//
// Usage:
//
//	urcgc-bench [-exp fig4|fig5|table1|fig6a|fig6b|throughput|ablation|all] [-n N] [-k K] [-seed S] [-csv]
//
// Each experiment prints the same rows/series the paper reports. Absolute
// values depend on the simulated substrate; see EXPERIMENTS.md for the
// paper-vs-measured comparison. The same drivers back the benchmarks in
// internal/experiments (`go test -bench . ./internal/experiments/`).
package main

import (
	"flag"
	"fmt"
	"os"

	"urcgc/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4, fig5, table1, fig6a, fig6b, throughput, ablation, or all")
	n := flag.Int("n", 0, "override group size (0 = experiment default)")
	k := flag.Int("k", 0, "override K (0 = experiment default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	show := func(r interface {
		Render() string
		CSV() string
	}) {
		if *csv {
			fmt.Print(r.CSV())
			fmt.Println()
			return
		}
		fmt.Println(r.Render())
	}

	if run("fig4") {
		cfg := experiments.DefaultFig4()
		applyOverrides(&cfg.N, &cfg.K, *n, *k)
		cfg.Seed = *seed
		res, err := experiments.Fig4(cfg)
		exitOn(err)
		show(res)
		any = true
	}
	if run("fig5") {
		cfg := experiments.DefaultFig5()
		applyOverrides(&cfg.N, &cfg.K, *n, *k)
		cfg.Seed = *seed
		res, err := experiments.Fig5(cfg)
		exitOn(err)
		show(res)
		any = true
	}
	if run("table1") {
		cfg := experiments.DefaultTable1()
		if *n > 0 {
			cfg.Ns = []int{*n}
		}
		if *k > 0 {
			cfg.K = *k
		}
		cfg.Seed = *seed
		res, err := experiments.Table1(cfg)
		exitOn(err)
		show(res)
		any = true
	}
	if run("fig6a") || run("fig6b") {
		size := 40
		if *n > 0 {
			size = *n
		}
		cfg := experiments.DefaultFig6(size)
		if *k > 0 {
			cfg.Ks = []int{*k}
		}
		cfg.Seed = *seed
		if run("fig6a") {
			res, err := experiments.Fig6a(cfg)
			exitOn(err)
			show(res)
		}
		if run("fig6b") {
			res, err := experiments.Fig6b(cfg)
			exitOn(err)
			show(res)
		}
		any = true
	}
	if run("ablation") {
		cfg := experiments.DefaultAblation()
		applyOverrides(&cfg.N, &cfg.K, *n, *k)
		cfg.Seed = *seed
		res, err := experiments.Ablation(cfg)
		exitOn(err)
		show(res)
		any = true
	}
	if run("throughput") {
		cfg := experiments.DefaultThroughput()
		applyOverrides(&cfg.N, &cfg.K, *n, *k)
		cfg.Seed = *seed
		res, err := experiments.Throughput(cfg)
		exitOn(err)
		show(res)
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func applyOverrides(n, k *int, nv, kv int) {
	if nv > 0 {
		*n = nv
	}
	if kv > 0 {
		*k = kv
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "urcgc-bench:", err)
		os.Exit(1)
	}
}
