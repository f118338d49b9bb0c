package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"urcgc/internal/stitch"
)

// traceCmd stitches one cross-node timeline per message out of the /trace
// lifecycle reports every member serves. Spans are joined by (group, MID) —
// each group is its own sequence space — so one invocation covers every
// hosted group; -group restricts the sweep to one. The default text report
// lists the top -top slowest messages with the per-member broadcast→deliver
// skew, and flags messages stuck in a causal wait with the member and
// dependency MID that block them; -json emits the full stitched report
// instead. It exits 1 when fewer than -min messages could be stitched (the
// smoke test's guard).
func traceCmd(fs *flag.FlagSet, args []string) int {
	var (
		cluster = clusterFlags(fs, "comma-separated observability addresses of the members (required)", 3*time.Second)
		group   = fs.Int("group", -1, "restrict to one group id (-1 = every hosted group)")
		top     = fs.Int("top", 10, "how many of the slowest stitched messages to print")
		slow    = fs.Int("slow", 32, "in-flight spans requested per node")
		recent  = fs.Int("recent", 32, "completed spans requested per node")
		asJSON  = fs.Bool("json", false, "emit the stitched report as JSON")
		minMsgs = fs.Int("min", 0, "exit 1 unless at least this many messages were stitched")
	)
	fs.Parse(args)
	cfg := stitch.Config{Cluster: *cluster, Group: *group, Slow: *slow, Recent: *recent}
	if len(cfg.Nodes) == 0 {
		fail("trace: -nodes is required")
	}

	report := stitch.Stitch(stitch.Collect(cfg))
	if *asJSON {
		printJSON(report)
	} else {
		report.Write(os.Stdout, *top)
	}
	if len(report.Messages) < *minMsgs {
		fmt.Fprintf(os.Stderr, "urcgc-ctl trace: stitched %d messages, need %d\n", len(report.Messages), *minMsgs)
		return 1
	}
	return 0
}
