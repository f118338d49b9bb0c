package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"urcgc/internal/benchsuite"
)

// The -baseline mode records the perf trajectory artifact BENCH_BASELINE.json:
// ns/op, B/op, allocs/op and the scientific metrics (delay_rtd, histpeak, …)
// for every benchsuite.Baseline case, run through testing.Benchmark — the
// same bodies `go test -bench` runs. Refreshing an existing file keeps the
// old run under "previous", so the artifact always carries before/after
// numbers for the latest perf change.

const baselineSchema = "urcgc-bench-baseline/v1"

type baselineEntry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	// AllocsExact is allocs/op before testing's integer division: the live
	// families sit at a handful of objects per message, where the -diff
	// guard's 5% is a fraction of one. Absent from older recordings.
	AllocsExact float64            `json:"allocs_op_exact,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// exactAllocs is r's allocs/op undivided by testing's integer arithmetic.
func exactAllocs(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.MemAllocs) / float64(r.N)
}

type baselineRun struct {
	Recorded string          `json:"recorded"`
	Note     string          `json:"note,omitempty"`
	Benches  []baselineEntry `json:"benches"`
}

type baselineFile struct {
	Schema   string          `json:"schema"`
	Recorded string          `json:"recorded"`
	Note     string          `json:"note,omitempty"`
	Go       string          `json:"go"`
	NumCPU   int             `json:"num_cpu"`
	Benches  []baselineEntry `json:"benches"`
	Previous *baselineRun    `json:"previous,omitempty"`
}

func runBaseline(path, note string) error {
	var previous *baselineRun
	if raw, err := os.ReadFile(path); err == nil {
		var old baselineFile
		if err := json.Unmarshal(raw, &old); err == nil && len(old.Benches) > 0 {
			previous = &baselineRun{Recorded: old.Recorded, Note: old.Note, Benches: old.Benches}
		}
	}

	cases := benchsuite.Baseline()
	entries := make([]baselineEntry, 0, len(cases))
	for _, c := range cases {
		fmt.Fprintf(os.Stderr, "bench %-28s ", c.Name)
		r := testing.Benchmark(c.F)
		e := baselineEntry{
			Name:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			AllocsExact: exactAllocs(r),
		}
		if len(r.Extra) > 0 {
			e.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Metrics[k] = v
			}
		}
		entries = append(entries, e)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %10d B/op %8d allocs/op\n", e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })

	out := baselineFile{
		Schema:   baselineSchema,
		Recorded: time.Now().UTC().Format(time.RFC3339),
		Note:     note,
		Go:       runtime.Version(),
		NumCPU:   runtime.NumCPU(),
		Benches:  entries,
		Previous: previous,
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benches)\n", path, len(entries))
	return nil
}
