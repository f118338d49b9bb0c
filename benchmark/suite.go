package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// spec is one end-to-end metric's contract; ../BENCHMARK.json records the
// same table and TestSpecMatchesBenchmarkJSON keeps the two identical.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // share of the base median a metric may worsen by
}

// endToEndSpecs lists the gated metrics. failed_share and
// invariant_violations are reported as the result line's failed/attempted
// and correct, which is where the driver reads them.
var endToEndSpecs = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"confirmed_msgs_s", "msgs/s", "higher", 0.25},
	{"confirm_p50_ms", "ms", "lower", 0.25},
	{"delivery_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// stat is one metric over a suite's repeated sets.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// suiteWorkload is one workload's part of the suite output.
type suiteWorkload struct {
	Workload    string          `json:"workload"`
	Why         string          `json:"why"`
	Link        string          `json:"link"`
	Correct     bool            `json:"correct"`
	Invalid     []string        `json:"invalid,omitempty"` // harness guards tripped, one entry per run
	Attempted   int64           `json:"attempted"`
	Failed      int64           `json:"failed"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	PerLayer    map[string]stat `json:"per_layer,omitempty"`
	Diagnostics map[string]stat `json:"diagnostics"`
	SpanFile    string          `json:"span_file,omitempty"`
}

// suiteOutput is what the suite prints. Claim stays null: this harness is
// the ruler, it claims no gain.
type suiteOutput struct {
	Env       environment     `json:"env"`
	Seconds   float64         `json:"seconds"`
	Repeat    int             `json:"repeat"`
	Workloads []suiteWorkload `json:"workloads"`
	Claim     *string         `json:"claim"`
}

func addStats(into map[string]stat, from map[string]metric) {
	for name, m := range from {
		s := into[name]
		s.Unit = m.Unit
		s.Values = append(s.Values, m.Value)
		into[name] = s
	}
}

func summarise(stats map[string]stat) {
	for name, s := range stats {
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		stats[name] = s
	}
}

// runChild measures one workload in a fresh process, so peak RSS, the
// allocator and the scheduler start clean exactly as they do for the
// driver, and returns its full report.
func runChild(self string, w workload, o options, trace int, smoke bool, reportPath string) (*report, error) {
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-report", reportPath, "-out", o.outDir,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	if o.verbose {
		args = append(args, "-v")
	}
	if o.stateDir != "" {
		args = append(args, "-state", o.stateDir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s trace=%d: %w", w.name, trace, err)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", reportPath, err)
	}
	return rep, nil
}

// runSuite runs every workload repeat times (each run its own process),
// untraced and, with -trace 1, traced as well, and prints one JSON object.
// It returns the process exit code.
func runSuite(o options, repeat int, smoke bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	reportPath := filepath.Join(o.outDir, "report.json")
	out := suiteOutput{Env: readEnvironment(o.seed), Seconds: o.seconds, Repeat: repeat}
	if smoke {
		out.Seconds = 1
	}
	code := 0
	for _, w := range workloads() {
		sw := suiteWorkload{
			Workload: w.name, Why: w.why, Link: w.host.link(), Correct: true,
			EndToEnd: map[string]stat{}, Diagnostics: map[string]stat{},
		}
		passes := []int{0}
		if o.trace {
			sw.PerLayer = map[string]stat{}
			passes = []int{0, 1}
		}
		for r := 0; r < repeat; r++ {
			var untraced *report
			for _, trace := range passes {
				rep, err := runChild(self, w, o, trace, smoke, reportPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				sw.Correct = sw.Correct && rep.Correct
				if rep.Invalid != "" {
					sw.Invalid = append(sw.Invalid, rep.Invalid)
				}
				addStats(sw.Diagnostics, rep.Diagnostics)
				if trace == 0 {
					untraced = rep
					sw.Attempted += rep.Attempted
					sw.Failed += rep.Failed
					addStats(sw.EndToEnd, rep.Metrics)
					continue
				}
				base := untraced.Diagnostics["cpu_ms_per_kmsg"].Value
				rep.Metrics["harness.trace_overhead_pct"] = metric{
					100 * (rep.Metrics["run.cpu_ms_per_kmsg"].Value/base - 1), "%"}
				addStats(sw.PerLayer, rep.Metrics)
				sw.SpanFile = rep.SpanFile
			}
		}
		summarise(sw.EndToEnd)
		summarise(sw.PerLayer)
		summarise(sw.Diagnostics)
		// A failed send, a member lost on a fault-free workload, or any
		// invariant violation fails the suite.
		if !sw.Correct || sw.Failed > 0 {
			code = 1
		}
		out.Workloads = append(out.Workloads, sw)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// compareSuites applies the bounds to two suite outputs of the same seed
// and prints one row per (workload, end-to-end metric): ok, worse, or
// unresolved when either side's run-to-run spread (Q3-Q1 over the median)
// exceeds the bound. It returns 1 if any row is worse or unresolved.
func compareSuites(basePath, candPath string) int {
	load := func(path string) (*suiteOutput, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		s := new(suiteOutput)
		if err := json.Unmarshal(data, s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	base, err := load(basePath)
	if err == nil {
		var cand *suiteOutput
		if cand, err = load(candPath); err == nil {
			return printComparison(base, cand)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func printComparison(base, cand *suiteOutput) int {
	candBy := map[string]suiteWorkload{}
	for _, w := range cand.Workloads {
		candBy[w.Workload] = w
	}
	code := 0
	fmt.Printf("%-14s %-18s %12s %12s %-8s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base", "candidate", "unit", "change", "bound", "spread_b", "spread_c", "verdict")
	for _, bw := range base.Workloads {
		cw, ok := candBy[bw.Workload]
		if !ok {
			fmt.Printf("%-14s missing from candidate\n", bw.Workload)
			code = 1
			continue
		}
		if cw.Failed > 0 || !cw.Correct {
			fmt.Printf("%-14s candidate failed=%d of %d correct=%v: worse\n", cw.Workload, cw.Failed, cw.Attempted, cw.Correct)
			code = 1
		}
		for _, sp := range endToEndSpecs {
			b, c := bw.EndToEnd[sp.Name], cw.EndToEnd[sp.Name]
			verdict := verdictOf(sp, b, c)
			if verdict != "ok" {
				code = 1
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %-8s %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				bw.Workload, sp.Name, b.Median, c.Median, sp.Unit,
				100*ratio(c.Median-b.Median, b.Median), 100*sp.Bound,
				100*ratio(b.Q3-b.Q1, b.Median), 100*ratio(c.Q3-c.Q1, c.Median), verdict)
		}
	}
	return code
}

// verdictOf judges one metric: the change is the candidate's median over
// the base's; every ratio is printed with that base beside it.
func verdictOf(sp spec, b, c stat) string {
	if b.Median == 0 || len(c.Values) == 0 {
		return "unresolved"
	}
	if len(b.Values) > 1 && (ratio(b.Q3-b.Q1, b.Median) > sp.Bound || ratio(c.Q3-c.Q1, c.Median) > sp.Bound) {
		return "unresolved"
	}
	change := (c.Median - b.Median) / b.Median
	if sp.Better == "higher" {
		change = -change
	}
	if change > sp.Bound {
		return "worse"
	}
	return "ok"
}
