package main

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"urcgc/internal/inspect"
)

// inspectCmd reconstructs the cluster-wide protocol picture from the
// members' /status and /healthz. One-shot mode (the default) prints the
// reconstructed Report as JSON and exits 0 when the cluster is healthy, 1
// when any divergence persists past the grace re-probe: a member
// unreachable or departed from a group, members disagreeing about who is
// alive, a stability-frontier or processed-count spread naming the lagging
// members, or a node's own unhealthy /healthz verdict (a frozen token among
// its reasons).
// With -watch it prints one summary line per interval instead, with problem
// details under each unhealthy round, until interrupted; the exit code
// reflects the final round.
func inspectCmd(fs *flag.FlagSet, args []string) int {
	var (
		cluster = clusterFlags(fs, "comma-separated observability addresses of the members (required)", 2*time.Second)
		grace   = fs.Duration("grace", 2*time.Second, "one-shot re-probe delay before declaring problems persistent (0 disables)")
		skew    = fs.Int64("skew", 64, "tolerated stability-frontier spread before lagging nodes are flagged")
		watch   = fs.Duration("watch", 0, "poll at this interval and print summaries instead of one-shot JSON (0 = one-shot)")
	)
	fs.Parse(args)
	cfg := inspect.Config{Cluster: *cluster, Grace: *grace, FrontierSkew: *skew}
	if len(cfg.Nodes) == 0 {
		fail("inspect: -nodes is required")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	var report inspect.Report
	if *watch > 0 {
		report = inspect.Watch(ctx, cfg, *watch, os.Stdout)
	} else {
		report = inspect.OneShot(ctx, cfg)
		printJSON(report)
	}
	if !report.Healthy {
		return 1
	}
	return 0
}
