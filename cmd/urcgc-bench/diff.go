package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"urcgc/internal/benchsuite"
)

// The -diff mode is the allocation guard over the trajectory artifact: it
// re-runs the guarded benchmark families fresh and fails (exit 1) when a case
// allocates more per operation than BENCH_BASELINE.json records, or when the
// recording lacks a guarded case — a guard with nothing to compare against is
// off. Only families whose allocs/op repeat exactly are guarded: they run on
// one goroutine, so the count is a property of the code, not of the runner.
// Time per operation is not judged; the live runtime's throughput and latency
// are gated end to end by benchmark/.

// diffFamilies are the guarded name prefixes in benchsuite.Baseline: "Wire"
// covers the whole codec family (Marshal, MarshalAppend, Unmarshal, the
// free-list decode streams), "IdleSubrun" one subrun of an idle in-process
// group through it.
var diffFamilies = []string{"Wire", "IdleSubrun"}

func guarded(name string) bool {
	for _, p := range diffFamilies {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// verdict is one guarded case against the recording.
type verdict struct {
	name        string
	base, fresh int64 // allocs/op
	missing     bool  // not in the recording: never measured
}

func (v verdict) failed() bool { return v.missing || v.fresh > v.base }

func (v verdict) String() string {
	if v.missing {
		return fmt.Sprintf("%-28s %12s %12s  MISSING from the recording", v.name, "-", "-")
	}
	mark := ""
	if v.failed() {
		mark = "  MORE ALLOCS"
	}
	return fmt.Sprintf("%-28s %12d %12d%s", v.name, v.base, v.fresh, mark)
}

// compare measures every guarded case of cases that the recording holds, and
// returns a verdict per guarded case and an error naming each one that is
// missing from the recording or allocates more than it records.
func compare(cases []benchsuite.Case, recorded map[string]baselineEntry, measure func(benchsuite.Case) int64) ([]verdict, error) {
	var out []verdict
	var bad []string
	for _, c := range cases {
		if !guarded(c.Name) {
			continue
		}
		v := verdict{name: c.Name}
		if old, ok := recorded[c.Name]; ok {
			v.base, v.fresh = old.AllocsPerOp, measure(c)
		} else {
			v.missing = true
		}
		if v.failed() {
			bad = append(bad, c.Name)
		}
		out = append(out, v)
	}
	if len(bad) > 0 {
		return out, fmt.Errorf("%d guarded case(s) missing or allocating more: %s", len(bad), strings.Join(bad, ", "))
	}
	return out, nil
}

// runDiff compares a fresh run of the guarded families against the recorded
// baseline and prints one row per case. The error reports an operational
// failure or the cases that failed their guard.
func runDiff(path string) error {
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
	verdicts, err := compare(benchsuite.Baseline(), recorded, func(c benchsuite.Case) int64 {
		fmt.Fprintf(os.Stderr, "bench %-28s ", c.Name)
		r := testing.Benchmark(c.F)
		fmt.Fprintf(os.Stderr, "%8d allocs/op\n", r.AllocsPerOp())
		return r.AllocsPerOp()
	})
	fmt.Printf("%-28s %12s %12s\n", "bench", "base allocs", "fresh allocs")
	for _, v := range verdicts {
		fmt.Println(v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("no allocs/op regression in %d guarded cases\n", len(verdicts))
	return nil
}
