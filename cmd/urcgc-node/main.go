// Command urcgc-node runs one urcgc group member over real UDP sockets —
// the paper's prototype deployment over a LAN (Section 7). Start one
// process per member, each with the same -peers list and its own -self:
//
//	urcgc-node -self 0 -peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 &
//	urcgc-node -self 1 -peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 &
//	urcgc-node -self 2 -peers 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702
//
// Lines typed on stdin are multicast to the group; messages processed at
// this member — its own and its peers', in causal order — are printed.
// With -chatter the node also generates synthetic traffic by itself.
//
// A member restarted with -join rejoins the running group instead of
// starting fresh: it state-transfers the history and sequence vectors
// from a live member, is re-admitted by the next decisions, and only then
// accepts new submissions. This is the recovery path after the suicide
// rule (or a crash) took the member out: leave, restart, rejoin.
//
// The member hosts -groups G independent groups (default 1) over its one
// socket, as G sessions on -shards S shard loops: stdin lines go to group 0
// unless prefixed "<g>:", chatter rotates across groups, printed messages
// carry a [gN] tag, and the shutdown summary lists the per-group processed
// counts. Everything observable is indexed by group, one group included:
// the per-entity series carry {node, group} labels on /metrics and
// /timeseries, and /status, /healthz and /trace each serve one document
// listing every hosted group.
//
// The node is observable while it runs: -metrics (default 127.0.0.1:0)
// binds an HTTP listener serving
//
//	/metrics     live counters, gauges and histograms (Prometheus text)
//	/status      every hosted group's protocol state (view, vectors,
//	             buffers); append ?format=json for the machine-readable form
//	/healthz     protocol health, one rule set per group, judged on the
//	             /status facts: 200 healthy, 503 naming the degraded
//	             {group, rule, reason} triples
//	/timeseries  the flight recorder's gauge window as JSON (needs -sample)
//	/events      recent trace events (inbox drops and other omissions)
//	/trace       per-message lifecycle spans of every group (?group=N keeps
//	             one): recent completed plus the slowest in-flight, waiting
//	             ones with their blocking MIDs
//	/capture     the frame flight recorder's raw wire traffic as a binary
//	             dump for `urcgc-ctl replay` (?decode=1 for JSON; needs
//	             -capture)
//	/debug/vars  the same registry as expvar JSON
//	/debug/pprof CPU/heap/goroutine profiles
//
// and a summary table of every instrument is printed on shutdown (SIGINT,
// SIGTERM, stdin EOF, or leaving a group). The whole cluster's health
// picture — view agreement, token progress, stability-frontier skew, per
// group — is reconstructed from these endpoints by `urcgc-ctl inspect`.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/core"
	"urcgc/internal/lifecycle"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// indication is one processed message tagged with the group whose stream
// carried it: main merges every group's stream into one channel.
type indication struct {
	group uint32
	rt.Indication
}

func main() {
	var (
		self      = flag.Int("self", 0, "this member's identity (index into -peers)")
		peers     = flag.String("peers", "", "comma-separated member addresses, index = identity")
		k         = flag.Int("k", 3, "K parameter")
		join      = flag.Bool("join", false, "rejoin a running group: state-transfer from a live member instead of starting fresh (use when restarting a member of a live cluster)")
		groups    = flag.Int("groups", 1, "independent groups hosted over this member's socket")
		shards    = flag.Int("shards", 0, "protocol shard loops (0 = min(groups, GOMAXPROCS))")
		round     = flag.Duration("round", 20*time.Millisecond, "round duration")
		chatter   = flag.Duration("chatter", 0, "generate a synthetic message this often (0 = stdin only)")
		metrics   = flag.String("metrics", "127.0.0.1:0", "HTTP address for /metrics, /status, /healthz, /timeseries, /events, /trace and /debug/* (empty disables)")
		traceSlow = flag.Duration("trace-slow", time.Second, "flag a message stuck waiting longer than this on /trace (0 disables lifecycle tracing)")
		sample    = flag.Duration("sample", time.Second, "flight-recorder sampling interval for /timeseries (0 disables)")
		window    = flag.Int("window", 512, "flight-recorder ring length: samples of history retained")
		batchWin  = flag.Duration("batch-window", 0, "coalesce concurrent submissions into one DataBatch broadcast; a window closes when full, at once when its send is the group's only one in flight, when the group's loop has run an event with nothing queued, or after this long (0 disables batching)")
		batchMax  = flag.Int("batch-max", 0, "max messages a member broadcasts per subrun, over as many flushes as submissions arrive; without -batch-window each one leaves as its own frame (0 = 1, or the default when -batch-window is set)")
		capFrames = flag.Int("capture", 0, "frame flight-recorder depth: raw wire frames retained for /capture and urcgc-ctl replay (0 disables)")
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if len(addrs) < 1 || *peers == "" {
		fmt.Fprintln(os.Stderr, "urcgc-node: -peers is required")
		os.Exit(2)
	}
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if *groups < 1 {
		fmt.Fprintln(os.Stderr, "urcgc-node: -groups must be at least 1")
		os.Exit(2)
	}
	reg := obs.New()
	cfg := core.Config{
		N: len(addrs), K: *k, R: 2**k + 2, SelfExclusion: true,
		BatchMax: *batchMax,
		Join:     *join,
	}

	var ring *capture.Ring
	var captures []*capture.Ring // indexed by ProcID: this member's entry only
	if *capFrames > 0 && *self >= 0 {
		ring = capture.New(capture.Options{
			Node: mid.ProcID(*self), N: cfg.N, K: cfg.K, R: cfg.R,
			SelfExclusion: cfg.SelfExclusion, MaxFrames: *capFrames,
		})
		captures = append(make([]*capture.Ring, *self), ring)
	}

	var lcOpts *lifecycle.Options
	if *traceSlow > 0 {
		lcOpts = &lifecycle.Options{SlowThreshold: *traceSlow}
	}
	// leftCh reports the first group this member leaves; the member exits.
	leftCh := make(chan core.LeaveReason, 1)
	node, err := rt.NewMember(rt.Config{
		Config:        cfg,
		Groups:        *groups,
		Shards:        *shards,
		Self:          mid.ProcID(*self),
		Peers:         addrs,
		RoundDuration: *round,
		BatchWindow:   *batchWin,
		Metrics:       reg,
		Lifecycle:     lcOpts,
		Captures:      captures,
		Logf:          log.Printf,
		Observe: func(_ mid.ProcID, g uint32) core.Callbacks {
			return core.Callbacks{
				OnJoined: func() {
					fmt.Printf("member %d rejoined group %d (state transfer complete)\n", *self, g)
				},
				OnLeave: func(r core.LeaveReason) {
					select {
					case leftCh <- r:
					default:
					}
				},
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "urcgc-node:", err)
		os.Exit(1)
	}
	// Merge every group's indication stream into one tagged channel.
	indications := make(chan indication, 64)
	for g := uint32(0); g < uint32(*groups); g++ {
		ch, err := node.Indications(g)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-node:", err)
			os.Exit(1)
		}
		go func() {
			for i := range ch {
				indications <- indication{g, i}
			}
		}()
	}
	node.Start()
	joining := ""
	if *join {
		joining = ", rejoining"
	}
	fmt.Printf("member %d of %d up at %s (round %v, %d groups over %d shards%s)\n",
		*self, len(addrs), node.LocalAddr(), *round, *groups, node.Shards(), joining)

	var flight *obs.Flight
	if *metrics != "" {
		if *sample > 0 {
			flight = obs.NewFlight(reg, obs.FlightOptions{Interval: *sample, Cap: *window})
			flight.Start()
		}
		reg.PublishExpvar("urcgc")
		mux := nodehttp.Mux(nodehttp.Options{
			Registry:  reg,
			Flight:    flight,
			Status:    node.Status,
			Lifecycle: node.Lifecycles,
			Capture:   ring,
			Pprof:     true,
		})
		ln, err := nodehttp.Serve(*metrics, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-node: metrics:", err)
			node.Stop()
			os.Exit(1)
		}
		fmt.Printf("observability at http://%s/metrics (also /status, /healthz, /timeseries, /events, /trace, /debug/vars, /debug/pprof)\n", ln.Addr())
	}

	// shutdown prints the observability summary exactly once, then stops
	// the member.
	shutdown := func(why string) {
		if flight != nil {
			flight.Stop()
		}
		fmt.Printf("\n--- %s: shutdown summary (member %d) ---\n", why, *self)
		reg.WriteSummary(os.Stdout)
		fmt.Printf("--- per-group processed (%d groups) ---\n", *groups)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := node.Status(ctx)
		cancel()
		if err != nil {
			fmt.Printf("status unavailable: %v\n", err)
		} else {
			for _, g := range st.Groups {
				fmt.Printf("group %-4d %d\n", g.Group, g.Processed.Sum())
			}
		}
		for g, tr := range node.Lifecycles() {
			if c := tr.Counts(); c.Completed > 0 {
				fmt.Printf("--- group %d slowest completed message spans (of %d) ---\n", g, c.Completed)
				tr.WriteSlowest(os.Stdout, 5)
			}
		}
		if evs := reg.Events().Events(); len(evs) > 0 {
			fmt.Printf("--- recent events (%d of %d total, %d dropped) ---\n",
				len(evs), reg.Events().Total(), reg.Events().Dropped())
			reg.Events().Write(os.Stdout)
		}
		node.Stop()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	go func() {
		for ind := range indications {
			fmt.Printf("[g%d %v] %s\n", ind.group, ind.Msg.ID, ind.Msg.Payload)
		}
	}()

	if *chatter > 0 {
		go func() {
			seq := 0
			for range time.Tick(*chatter) {
				seq++
				g := uint32(seq % *groups)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, err := node.Send(ctx, g, []byte(fmt.Sprintf("chatter %d from %d", seq, *self)), nil)
				cancel()
				if err != nil {
					// Transient refusals are expected while rejoining (-join):
					// the member accepts submissions only once admitted.
					fmt.Fprintln(os.Stderr, "chatter:", err)
				}
			}
		}()
	}

	stdinDone := make(chan struct{})
	go func() {
		defer close(stdinDone)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			g, text := splitGroup(line, *groups)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			id, err := node.Send(ctx, g, []byte(text), nil)
			cancel()
			if err != nil {
				fmt.Fprintln(os.Stderr, "send:", err)
				continue
			}
			fmt.Printf("confirmed %v on group %d\n", id, g)
		}
	}()

	select {
	case sig := <-sigCh:
		shutdown(sig.String())
	case reason := <-leftCh:
		fmt.Printf("member left the group: %v\n", reason)
		shutdown("left group")
	case <-stdinDone:
		if *chatter > 0 {
			// Chatter-driven node: keep running until signalled or excluded.
			select {
			case sig := <-sigCh:
				shutdown(sig.String())
			case reason := <-leftCh:
				fmt.Printf("member left the group: %v\n", reason)
				shutdown("left group")
			}
			return
		}
		shutdown("stdin closed")
	}
}

// splitGroup routes a stdin line: "<g>: text" goes to group g when g parses
// as a hosted group index; everything else goes to group 0 verbatim.
func splitGroup(line string, groups int) (uint32, string) {
	head, rest, ok := strings.Cut(line, ":")
	if !ok {
		return 0, line
	}
	g, err := strconv.Atoi(strings.TrimSpace(head))
	if err != nil || g < 0 || g >= groups {
		return 0, line
	}
	return uint32(g), strings.TrimSpace(rest)
}
