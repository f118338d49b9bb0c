// Command benchmark measures the live urcgc runtimes end to end and layer
// by layer (see README.md and ../BENCHMARK.json).
//
// It is one process at GOMAXPROCS = nproc that hosts the members through
// the public constructors (rt.NewUDPNode, rt.NewCluster,
// topics.NewMultiNode, topics.NewMultiCluster), drives them with seeded
// load, and audits every indication stream with faultrt.Checker. Links are
// the host's loopback interface or the in-process mesh; no delay is
// injected.
//
//	go run . -workload lan_light -seed 1 -seconds 15 -trace 0   # one run, as the driver does
//	go run .                      # all five workloads, untraced
//	go run . -trace 1             # untraced, then traced with per-layer metrics and span files
//	go run . -repeat 3 > a.json   # medians and quartiles per metric
//	go run . -compare a.json b.json
//	go run . -smoke               # 1 s per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded in every output.
type environment struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	Kernel          string `json:"kernel"`
	RmemDefault     int    `json:"net_core_rmem_default"`
	SendmmsgBuilt   bool   `json:"sendmmsg_built"` // the runtimes compile the burst path on linux/amd64,arm64; rt.frames_per_burst shows its use
	GitCommit       string `json:"git_commit"`
	Seed            int64  `json:"seed"`
	Link            string `json:"link,omitempty"` // "loopback" or "mesh"; per workload
	InjectedDelayMs int    `json:"injected_delay_ms"`
}

func readEnvironment(seed int64) environment {
	readTrim := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(b))
	}
	rmem, _ := strconv.Atoi(readTrim("/proc/sys/net/core/rmem_default"))
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: readTrim("/proc/sys/kernel/osrelease"), RmemDefault: rmem,
		SendmmsgBuilt: runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"),
		GitCommit:     commit, Seed: seed,
	}
}

// report is one run's full record: the metric set of its pass, the
// ungated diagnostics, and the environment.
type report struct {
	Workload    string            `json:"workload"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Env         environment       `json:"env"`
	Correct     bool              `json:"correct"`
	Invalid     string            `json:"invalid,omitempty"` // which harness guard tripped, if one did
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Diagnostics map[string]metric `json:"diagnostics"`
	// Slices holds the per-slice values whose medians the end-to-end
	// metrics report, so a disturbed slice can be seen.
	Slices      map[string][]float64 `json:"slices,omitempty"`
	Violations  []string             `json:"violations,omitempty"`
	MembersLost []string             `json:"members_lost,omitempty"` // what ended each void leg
	Drill       *drillCounts         `json:"drill_counts,omitempty"`
	SpanFile    string               `json:"span_file,omitempty"`
}

// result is the line the driver reads: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure waits for a quiet host if asked to, runs one workload, probes the
// host again so a run that ended in a busy stretch can be told apart, and
// shapes the report.
func measure(w workload, o options) (*report, error) {
	share, waited := 1.0, time.Duration(0)
	if o.quietGate {
		share, waited = waitForQuietHost(o.stateDir)
	}
	m, err := runWorkload(w, o)
	if err != nil {
		return nil, err
	}
	m.hostShare, m.quietWait = [2]float64{share, 1}, waited
	if o.quietGate {
		m.hostShare[1] = busyShare()
		chargeLedger(o.stateDir, m.voidWall)
	}
	env := readEnvironment(o.seed)
	env.Link = w.host.link()
	rep := &report{
		Workload: w.name, Trace: o.trace, Seconds: o.seconds, Env: env,
		Correct: m.correct(), Invalid: m.invalid(),
		Attempted: m.confirmed + m.failed, Failed: m.failed, MembersLost: m.lost,
	}
	for _, v := range m.violations {
		if len(rep.Violations) == 20 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("... and %d more", len(m.violations)-20))
			break
		}
		rep.Violations = append(rep.Violations, v)
	}
	if !o.trace {
		rep.Metrics, rep.Diagnostics, rep.Slices = m.endToEnd()
		return rep, nil
	}
	dr, err := runDrill(&w, o.seed)
	if err != nil {
		return nil, err
	}
	rep.Metrics, rep.Diagnostics = m.perLayer(dr)
	rep.Drill = &dr.Counts
	// One file per workload: the live legs' spans, then the drill's.
	m.spans.merge(dr.spans)
	if rep.SpanFile, err = m.spans.write(o.outDir, w.name, o.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print the driver's result line last (empty: the whole suite)")
		seed     = flag.Int64("seed", 1, "workload seed: arrival schedules, fault injection, layer drill")
		seconds  = flag.Float64("seconds", 18, "measured window per run, after the warm-up")
		trace    = flag.Int("trace", 0, "1: the traced pass (obs.Registry, lifecycle, spans, layer drill) for the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "suite: run this many sets and print median and quartiles per metric")
		smoke    = flag.Bool("smoke", false, "suite: 1 s per workload, one set-up, short warm-up")
		compare  = flag.Bool("compare", false, "compare two suite outputs: benchmark -compare a.json b.json")
		reportTo = flag.String("report", "", "with -workload: also write the full report to this file")
		outDir   = flag.String("out", "out", "directory for the span files of a traced pass")
		verbose  = flag.Bool("v", false, "print the runtimes' throttled warnings")
		stateDir = flag.String("state", "", "directory for the ledger capping quiet-host waits across invocations (run.sh passes .bench_build)")
	)
	flag.Parse()
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(2, "GOMAXPROCS %d exceeds nproc %d: load must come from no more threads than cores", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare needs two suite files")
		}
		os.Exit(compareSuites(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}
	o := options{
		seed: *seed, seconds: *seconds, warmup: 2 * time.Second, setups: 15, setupFor: 2 * time.Second,
		trace: *trace != 0, outDir: *outDir, verbose: *verbose,
		quietGate: true, stateDir: *stateDir,
	}
	if *smoke {
		o.seconds, o.warmup, o.setups, o.setupFor, o.quietGate = 1, 300*time.Millisecond, 1, 0, false
	}
	if o.seconds <= 0 || *repeat < 1 {
		fatal(2, "need -seconds > 0 and -repeat >= 1")
	}
	if *name == "" {
		os.Exit(runSuite(o, *repeat, *smoke))
	}

	w, ok := workloadByName(*name)
	if !ok {
		fatal(2, "unknown workload %q", *name)
	}
	rep, err := measure(w, o)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *reportTo != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportTo, data, 0o644)
		}
		if err != nil {
			fatal(1, "write report: %v", err)
		}
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(os.Stderr, "benchmark:", v)
	}
	if rep.Invalid != "" {
		fmt.Fprintln(os.Stderr, "benchmark: run flagged invalid:", rep.Invalid)
	}
	fmt.Fprintf(os.Stderr, "%s trace=%d seed=%d link=%s injected_delay_ms=0 correct=%v attempted=%d failed=%d\n",
		w.name, *trace, o.seed, rep.Env.Link, rep.Correct, rep.Attempted, rep.Failed)
	line, err := json.Marshal(result{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
