// Command urcgc-chaos soaks a live in-process cluster under a seeded
// wall-clock fault schedule — one crash, one healed partition, omission
// bursts, background reordering and duplication — and verifies the paper's
// uniform properties afterwards: every decided message processed by all
// surviving members (Uniform Atomicity) and causal order respected at
// every member (Uniform Ordering).
//
// The fault plan is a pure function of -seed, so a failing run is rerun
// against the identical scripted adversary by passing the same seed.
// Every member additionally records its wire traffic into a frame flight
// recorder (-capture); a violating run dumps the recordings to
// -capture-dir (default: a fresh temp dir) so urcgc-ctl replay can reproduce
// and attribute the breach offline.
//
//	urcgc-chaos -seed 1 -duration 60s
//	urcgc-chaos -seed 1 -duration 10s -metrics 127.0.0.1:7780
//
// Exit status: 0 when both invariants held, 1 on violations or a run that
// failed to converge, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"urcgc/internal/chaos"
	"urcgc/internal/lifecycle"
	"urcgc/internal/nodehttp"
	"urcgc/internal/obs"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "fault-schedule seed (same seed, same plan)")
		n        = flag.Int("n", 5, "group size")
		k        = flag.Int("k", 4, "silence threshold K (partition length stays under K subruns)")
		r        = flag.Int("r", 8, "recovery-exhaustion threshold R")
		round    = flag.Duration("round", 2*time.Millisecond, "wall-clock round length")
		duration = flag.Duration("duration", 60*time.Second, "fault-phase length")
		settle   = flag.Duration("settle", 0, "max post-fault convergence wait (default: fault-phase length)")
		metrics  = flag.String("metrics", "", "HTTP address for /metrics and /events during the soak (empty disables)")
		slow     = flag.Duration("trace-slow", time.Second, "lifecycle watchdog threshold; stuck spans name the injected fault (0 disables tracing)")
		capFr    = flag.Int("capture", 1<<15, "frame flight-recorder depth per member (0 disables capture)")
		capDir   = flag.String("capture-dir", "", "directory for capture dumps on a violating run (default: a fresh temp dir)")
		quiet    = flag.Bool("q", false, "suppress progress narration")
	)
	flag.Parse()

	cfg := chaos.Config{
		Seed: *seed, N: *n, K: *k, R: *r,
		Round: *round, Duration: *duration, Settle: *settle,
		CaptureFrames: *capFr,
		Metrics:       obs.New(),
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	if *slow > 0 {
		cfg.Lifecycle = &lifecycle.Options{SlowThreshold: *slow}
	}
	if *metrics != "" {
		ln, err := nodehttp.Serve(*metrics, nodehttp.Mux(nodehttp.Options{Registry: cfg.Metrics}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "urcgc-chaos: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("observability at http://%s/metrics (also /events)\n", ln.Addr())
	}

	// SIGINT/SIGTERM abort the fault phase early; the audit still runs on
	// what happened so far.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	rep, err := chaos.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urcgc-chaos: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep)
	if ev := cfg.Metrics.Events(); ev != nil && !*quiet {
		for _, e := range ev.Events() {
			fmt.Printf("  event %s %s\n", e.At.Format("15:04:05.000"), e.Msg)
		}
	}
	if !rep.Ok() {
		// A violating run is evidence: dump every member's frame capture
		// so the breach can be replayed and attributed offline.
		dir := *capDir
		if dir == "" {
			if tmp, err := os.MkdirTemp("", "urcgc-captures-"); err == nil {
				dir = tmp
			}
		}
		if dir != "" && len(rep.Captures) > 0 {
			if paths, err := rep.DumpCaptures(dir); err != nil {
				fmt.Fprintf(os.Stderr, "urcgc-chaos: capture dump failed: %v\n", err)
			} else if len(paths) > 0 {
				fmt.Printf("capture dumps written (%d members): replay with\n  urcgc-ctl replay %s\n",
					len(paths), dir)
			}
		}
	}
	if !rep.Ok() || !rep.Converged() {
		os.Exit(1)
	}
}
