package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"urcgc/internal/benchsuite"
)

// The -diff mode is the perf regression guard over the trajectory artifact:
// it re-runs the guarded benchmark families fresh and compares each case
// against the recorded BENCH_BASELINE.json in two columns, failing (exit 1)
// when any case regressed past its tolerance. Only the families whose
// numbers the roadmap tracks are guarded — wire codec, saturation
// throughput, and multi-group scaling; the simulation-level cases (Fig4*,
// CBCASTRun, …) swing too much run-to-run to gate on.
//
//   - allocs/op is dimensionless and survives a noisy runner: the codec's
//     counts are exact, the live families' move only with how full the
//     batches run. This column gates `make check` (-allocs-only).
//   - ns/op on a shared runner is good for step changes only; it stays a
//     local guard (`make bench-diff`).

// diffFamilies are the guarded name prefixes in benchsuite.Baseline:
// "Wire" covers the whole codec family (Marshal, MarshalAppend, Unmarshal),
// "IdleSubrun" one subrun of an idle in-process group through it.
var diffFamilies = []string{"Wire", "IdleSubrun", "ThroughputSaturation", "GroupScaling"}

// diffTolerance is the allowed fractional ns/op growth before a case
// counts as a regression. Generous on purpose: these run on shared
// hardware, so the guard is for step-change regressions, not noise.
const diffTolerance = 0.25

// allocTolerance is the allowed fractional allocs/op growth of a case: none
// for the codec and the idle subrun, which run on one goroutine and whose
// counts repeat exactly, and 5% for the live families, where a subrun's fixed
// allocations are shared by however many messages the scheduler let into its
// batch.
func allocTolerance(name string) float64 {
	if strings.HasPrefix(name, "Wire") || strings.HasPrefix(name, "IdleSubrun") {
		return 0
	}
	return 0.05
}

// allocSlack is what a live family may grow by in absolute allocs/op on top
// of its fractional tolerance. With retained messages carved per chunk those
// families record a few hundredths of an object per message, where 5% is
// noise; one object more per message — a record, closure, rendezvous or copy
// — still fails.
const allocSlack = 0.25

// allocsRegressed reports whether fresh allocs/op regressed past the case's tolerance.
func allocsRegressed(name string, base, fresh float64) bool {
	tol := allocTolerance(name)
	if tol == 0 {
		return fresh > base
	}
	return fresh > base*(1+tol)+allocSlack
}

func guarded(name string) bool {
	for _, p := range diffFamilies {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runDiff compares a fresh run of the guarded families against the
// recorded baseline; with allocsOnly, ns/op is reported but never fails the
// run. Returns an error only for operational failures; regressions print a
// report and exit 1 directly.
func runDiff(path string, allocsOnly bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != baselineSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, base.Schema, baselineSchema)
	}
	recorded := make(map[string]baselineEntry, len(base.Benches))
	for _, e := range base.Benches {
		recorded[e.Name] = e
	}

	type row struct {
		name                    string
		baseNs, freshNs         float64
		baseAllocs, freshAllocs float64
		slower, heavier         bool
		missing                 bool
	}
	var rows []row
	regressions := 0
	for _, c := range benchsuite.Baseline() {
		if !guarded(c.Name) {
			continue
		}
		old, ok := recorded[c.Name]
		if !ok {
			// A case the baseline has never seen can't regress; flag it so
			// the operator refreshes the artifact.
			rows = append(rows, row{name: c.Name, missing: true})
			continue
		}
		fmt.Fprintf(os.Stderr, "bench %-28s ", c.Name)
		r := testing.Benchmark(c.F)
		fresh := float64(r.T.Nanoseconds()) / float64(r.N)
		// The live families are judged on the undivided count. The codec's
		// "exact" means testing's integer allocs/op (the undivided one carries
		// a few set-up objects over N), which is also all a recording older
		// than allocs_op_exact has: compare like with like.
		baseAllocs, freshAllocs := old.AllocsExact, exactAllocs(r)
		if baseAllocs == 0 || allocTolerance(c.Name) == 0 {
			baseAllocs, freshAllocs = float64(old.AllocsPerOp), float64(r.AllocsPerOp())
		}
		fmt.Fprintf(os.Stderr, "%12.0f ns/op (baseline %12.0f) %8.2f allocs/op (baseline %8.2f)\n",
			fresh, old.NsPerOp, freshAllocs, baseAllocs)
		rw := row{
			name: c.Name, baseNs: old.NsPerOp, freshNs: fresh,
			baseAllocs: baseAllocs, freshAllocs: freshAllocs,
			slower:  !allocsOnly && fresh > old.NsPerOp*(1+diffTolerance),
			heavier: allocsRegressed(c.Name, baseAllocs, freshAllocs),
		}
		if rw.slower || rw.heavier {
			regressions++
		}
		rows = append(rows, rw)
	}

	fmt.Printf("%-28s %14s %14s %8s %10s %10s\n", "bench", "baseline ns/op", "fresh ns/op", "delta", "base allocs", "fresh allocs")
	for _, r := range rows {
		if r.missing {
			fmt.Printf("%-28s %14s %14s %8s %10s %10s  not in baseline — refresh with -baseline\n",
				r.name, "-", "-", "-", "-", "-")
			continue
		}
		mark := ""
		if r.slower {
			mark += fmt.Sprintf("  SLOWER (>%.0f%%)", diffTolerance*100)
		}
		if r.heavier {
			mark += fmt.Sprintf("  MORE ALLOCS (>%.0f%% + %.2f)", allocTolerance(r.name)*100, allocSlack)
		}
		fmt.Printf("%-28s %14.0f %14.0f %+7.1f%% %10.2f %10.2f%s\n",
			r.name, r.baseNs, r.freshNs, (r.freshNs-r.baseNs)/r.baseNs*100, r.baseAllocs, r.freshAllocs, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "urcgc-bench: %d case(s) regressed vs %s\n", regressions, path)
		os.Exit(1)
	}
	gate := fmt.Sprintf("allocs/op, or ns/op past %.0f%%,", diffTolerance*100)
	if allocsOnly {
		gate = "allocs/op"
	}
	fmt.Printf("no regression in %s in %d guarded cases\n", gate, len(rows))
	return nil
}
