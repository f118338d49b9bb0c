package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/probe"
	"urcgc/internal/replay"
)

// replayCmd re-runs a cluster's captured wire traffic offline and audits
// the result. It ingests the frame flight recorders of every member —
// capture dump files (or directories of them) given as arguments, or the
// live /capture endpoints named by -nodes — merges them into one
// cluster-wide timeline joined by (group, MID), replays each member's
// delivered ingress frames through a fresh protocol entity, and re-runs the
// uniform-atomicity and uniform-ordering audit. A violation observed live
// either reproduces from the artifacts alone or is refuted by them; a
// reproduced one (exit 1) is attributed to the first captured frame whose
// loss broke the invariant.
func replayCmd(fs *flag.FlagSet, args []string) int {
	var (
		cluster = clusterFlags(fs, "comma-separated addresses to fetch /capture from (instead of dump files)", 5*time.Second)
		save    = fs.String("save", "", "directory to save fetched dumps into (with -nodes)")
		asJSON  = fs.Bool("json", false, "emit the replay result as JSON")
	)
	fs.Parse(args)

	var dumps []*capture.Dump
	switch {
	case len(cluster.Nodes) > 0:
		dumps = fetch(*cluster, *save)
	case fs.NArg() > 0:
		dumps = load(fs.Args())
	default:
		fail("replay: nothing to replay: pass dump files/directories or -nodes")
	}

	res, err := replay.Run(dumps)
	if err != nil {
		fail("%v", err)
	}
	if *asJSON {
		printJSON(res)
	} else {
		write(res)
	}
	if !res.Clean {
		return 1
	}
	return 0
}

// load reads dump files; a directory argument means every regular file
// inside it (the shape DumpCaptures writes).
func load(args []string) []*capture.Dump {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			fail("%v", err)
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		ents, err := os.ReadDir(a)
		if err != nil {
			fail("%v", err)
		}
		for _, e := range ents {
			if e.Type().IsRegular() {
				paths = append(paths, filepath.Join(a, e.Name()))
			}
		}
	}
	var dumps []*capture.Dump
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fail("%v", err)
		}
		d, err := capture.Decode(f)
		f.Close()
		if err != nil {
			fail("%s: %v", p, err)
		}
		dumps = append(dumps, d)
	}
	return dumps
}

// fetch collects /capture from live members in parallel, optionally
// persisting each dump before decoding it.
func fetch(c probe.Cluster, save string) []*capture.Dump {
	type fetched struct {
		addr string
		dump *capture.Dump
		err  error
	}
	results := probe.Fanout(c.Nodes, func(_ int, addr string) fetched {
		body, err := c.Get(context.Background(), probe.NormalizeAddr(addr), "/capture")
		if err != nil {
			return fetched{addr: addr, err: fmt.Errorf("%w (is the node running with -capture?)", err)}
		}
		d, err := capture.Decode(bytes.NewReader(body))
		return fetched{addr: addr, dump: d, err: err}
	})
	var dumps []*capture.Dump
	for _, r := range results {
		if r.err != nil {
			fail("%s: %v", r.addr, r.err)
		}
		if save != "" {
			path, err := r.dump.WriteFile(save)
			if err != nil {
				fail("saving: %v", err)
			}
			fmt.Printf("saved %s (%d records)\n", path, len(r.dump.Records))
		}
		dumps = append(dumps, r.dump)
	}
	return dumps
}

// write renders the human-readable verdict.
func write(res *replay.Result) {
	fmt.Printf("replayed %d capture dumps\n", res.Dumps)
	for _, g := range res.Groups {
		fmt.Printf("\ngroup %d: members %v, survivors %v", g.Group, g.Members, g.Survivors)
		if len(g.Crashed) > 0 {
			fmt.Printf(", crashed %v", g.Crashed)
		}
		fmt.Printf("\n  fed %d ingress frames (+%d own broadcasts)", g.Fed, g.SelfFed)
		if g.Undecodable > 0 {
			fmt.Printf(", %d undecodable", g.Undecodable)
		}
		fmt.Println()
		if len(g.Findings) == 0 {
			fmt.Println("  invariants hold: uniform atomicity and uniform ordering")
			continue
		}
		fmt.Printf("  %d VIOLATIONS reproduced:\n", len(g.Findings))
		for _, f := range g.Findings {
			fmt.Printf("    %s: node %d, %s: %s\n", f.Invariant, f.Node, f.MID, f.Detail)
			if f.Blocking != nil {
				fmt.Printf("      blocking frame: node %d capture #%d [%s %s", f.Blocking.Node,
					f.Blocking.Seq, f.Blocking.Dir, f.Blocking.Verdict)
				if f.Blocking.Fault != "" {
					fmt.Printf(" fault=%s", f.Blocking.Fault)
				}
				fmt.Printf("] %s\n", f.Blocking.Reason)
			}
		}
	}
	if res.First != nil {
		fmt.Printf("\nfirst frame whose loss broke an invariant: node %d capture #%d at %s\n  %s\n",
			res.First.Node, res.First.Seq, res.First.At, res.First.Reason)
	}
	if res.Clean {
		fmt.Println("\nverdict: clean — the captures reproduce no violation")
	}
}
