// Command urcgc-ctl is the operator's probe of a running cluster: every
// subcommand sweeps the observability endpoints the urcgc-node members
// serve (their -metrics addresses) through internal/probe.
//
//	urcgc-ctl inspect -nodes 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102
//	urcgc-ctl trace   -nodes 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102
//	urcgc-ctl replay  -nodes 127.0.0.1:9100,127.0.0.1:9101 -save dumps/
//	urcgc-ctl replay  dumps/
//
// inspect reconstructs the cluster-wide protocol picture per group (is
// the group making progress, do the views agree, who lags), trace stitches
// one cross-node timeline per message, replay re-runs captured wire
// traffic offline and audits it. Every subcommand exits 0 on a clean
// verdict, 1 when it found what it looks for (divergence, too few stitched
// messages, a reproduced violation) and 2 on usage or collection errors;
// `urcgc-ctl <subcommand> -h` lists its flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"urcgc/internal/probe"
)

func main() {
	commands := map[string]func(fs *flag.FlagSet, args []string) (exit int){
		"inspect": inspectCmd,
		"trace":   traceCmd,
		"replay":  replayCmd,
	}
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: urcgc-ctl inspect|trace|replay [flags]  (-h lists a subcommand's flags)")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("urcgc-ctl "+os.Args[1], flag.ExitOnError)
	os.Exit(commands[os.Args[1]](fs, os.Args[2:]))
}

// fail reports a usage or collection error and exits 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "urcgc-ctl: "+format+"\n", args...)
	os.Exit(2)
}

// clusterFlags registers -nodes and -timeout on fs and returns the sweep
// target they fill in when fs is parsed.
func clusterFlags(fs *flag.FlagSet, nodesUsage string, timeout time.Duration) *probe.Cluster {
	c := &probe.Cluster{}
	fs.Func("nodes", nodesUsage, func(v string) error {
		c.Nodes = strings.Split(v, ",")
		return nil
	})
	fs.DurationVar(&c.Timeout, "timeout", timeout, "per-request HTTP timeout")
	return c
}

// printJSON writes v to stdout, indented.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail("%v", err)
	}
}
