// Command urcgc-load drives a sharded multi-group cluster to saturation and
// reports what it sustained. It hosts the cluster itself — either over real
// loopback UDP sockets (the default, exercising the shared-socket demux and
// sendmmsg burst path) or over the in-process mesh (-mesh, protocol-only) —
// then fans thousands of concurrent client sessions across the groups. Each
// session loops: pick its group, Send, wait for the local confirm, record
// the latency. On exit it prints aggregate confirmed msgs/s plus the
// p50/p95/p99 confirm-latency quantiles; -json emits the same results as
// one machine-readable object instead, so load runs can be diffed across
// changes.
//
//	urcgc-load -n 3 -groups 8 -shards 8 -sessions 2000 -duration 10s
//
// The tool is the load half of the observability story: -metrics ADDR serves
// member 0's /metrics, /status and /healthz while it runs — under -mesh
// /metrics carries every member's series, the members sharing one registry —
// so curl or urcgc-ctl inspect can watch the per-group counters move. The
// per-group processed counts it reports are the sums of member 0's /status
// processed vectors at the end of the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"urcgc/internal/core"
	"urcgc/internal/mid"
	"urcgc/internal/nodehttp"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

func main() {
	var (
		n        = flag.Int("n", 3, "members in the cluster")
		groups   = flag.Int("groups", 8, "independent groups multiplexed over the shared transport")
		shards   = flag.Int("shards", 0, "protocol shard loops per member (0 = min(groups, GOMAXPROCS))")
		sessions = flag.Int("sessions", 1000, "concurrent client sessions fanned across groups and members")
		duration = flag.Duration("duration", 10*time.Second, "how long to drive load")
		k        = flag.Int("k", 3, "K parameter")
		round    = flag.Duration("round", 2*time.Millisecond, "round duration")
		batchWin = flag.Duration("batch-window", 500*time.Microsecond, "submission coalescing: the longest a window stays open; it closes at once when its send is the only one in flight, and under load when full or when the loop runs dry (0 disables batching)")
		payload  = flag.Int("payload", 64, "bytes per message")
		mesh     = flag.Bool("mesh", false, "use the in-process mesh instead of loopback UDP sockets")
		metrics  = flag.String("metrics", "", "HTTP address serving member 0's /metrics, /status and /healthz while loading, every member's /metrics with -mesh (empty disables)")
		asJSON   = flag.Bool("json", false, "emit the results as one JSON object (msgs/s, quantiles, per-group counts)")
		verbose  = flag.Bool("v", false, "log per-member runtime warnings")
	)
	flag.Parse()

	if *sessions < 1 || *groups < 1 || *n < 3 {
		fmt.Fprintln(os.Stderr, "urcgc-load: need -sessions >= 1, -groups >= 1, -n >= 3")
		os.Exit(2)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	cfg := rt.Config{
		Config: core.Config{
			N: *n, K: *k, R: 2**k + 2, SelfExclusion: true,
			BatchMax: core.DefaultBatchMax,
		},
		Groups:        *groups,
		Shards:        *shards,
		RoundDuration: *round,
		BatchWindow:   *batchWin,
		Logf:          logf,
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
	}
	members, stop, err := startCluster(cfg, *mesh, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "urcgc-load:", err)
		os.Exit(1)
	}
	defer stop()

	if reg != nil {
		mux := nodehttp.Mux(nodehttp.Options{Registry: reg, Status: members[0].Status})
		ln, err := nodehttp.Serve(*metrics, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-load: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(progress(*asJSON), "member 0 observability at http://%s/metrics\n", ln.Addr())
	}

	transport := "udp"
	if *mesh {
		transport = "mesh"
	}
	fmt.Fprintf(progress(*asJSON), "cluster up: n=%d groups=%d shards=%d transport=%s round=%v batch-window=%v\n",
		*n, *groups, members[0].Shards(), transport, *round, *batchWin)
	fmt.Fprintf(progress(*asJSON), "driving %d sessions for %v...\n", *sessions, *duration)

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var (
		confirmed atomic.Int64
		failed    atomic.Int64
		wg        sync.WaitGroup
	)
	body := make([]byte, *payload)
	// Each session keeps its own latency slice; they are merged after the
	// run so the hot loop never contends on a shared structure.
	lats := make([][]time.Duration, *sessions)
	start := time.Now()
	for s := 0; s < *sessions; s++ {
		s := s
		g := uint32(s % *groups)
		member := members[s%*n]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				_, err := member.Send(ctx, g, body, nil)
				if err != nil {
					if ctx.Err() == nil {
						failed.Add(1)
					}
					// A send that fails fast (a member that left the group
					// refuses at once) must not spin a core counting
					// millions of failures: pace the retry by one round.
					select {
					case <-time.After(*round):
					case <-ctx.Done():
					}
					continue
				}
				lats[s] = append(lats[s], time.Since(t0))
				confirmed.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	total := confirmed.Load()
	res := loadResult{
		N:          *n,
		Groups:     *groups,
		Shards:     members[0].Shards(),
		Sessions:   *sessions,
		Transport:  transport,
		ElapsedMs:  float64(elapsed.Nanoseconds()) / 1e6,
		Confirmed:  total,
		Failed:     failed.Load(),
		MsgsPerSec: float64(total) / elapsed.Seconds(),
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	st, err := members[0].Status(sctx)
	scancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "urcgc-load: status:", err)
		os.Exit(1)
	}
	for _, g := range st.Groups {
		res.GroupCounts = append(res.GroupCounts, int64(g.Processed.Sum()))
	}
	if len(all) > 0 {
		res.P50Ms = ms(quantile(all, 0.50))
		res.P95Ms = ms(quantile(all, 0.95))
		res.P99Ms = ms(quantile(all, 0.99))
		res.MaxMs = ms(all[len(all)-1])
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "urcgc-load:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("\n--- urcgc-load results ---\n")
	fmt.Printf("confirmed   %d msgs in %v\n", total, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate   %.0f msgs/s across %d groups\n", res.MsgsPerSec, *groups)
	if res.Failed > 0 {
		fmt.Printf("failed      %d sends\n", res.Failed)
	}
	if len(all) > 0 {
		fmt.Printf("confirm latency  p50 %v  p95 %v  p99 %v  max %v\n",
			quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99), all[len(all)-1])
	}
	fmt.Printf("per-group processed at member 0:")
	for g, c := range res.GroupCounts {
		fmt.Printf(" g%d=%d", g, c)
	}
	fmt.Println()
}

// loadResult is the -json shape: one flat object per run so results diff
// cleanly across changes. Latencies are milliseconds, the unit of the
// end-to-end benchmark's results.
type loadResult struct {
	N           int     `json:"n"`
	Groups      int     `json:"groups"`
	Shards      int     `json:"shards"`
	Sessions    int     `json:"sessions"`
	Transport   string  `json:"transport"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	Confirmed   int64   `json:"confirmed"`
	Failed      int64   `json:"failed"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	GroupCounts []int64 `json:"group_counts_member0"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// progress picks where human chatter goes: stderr under -json so stdout
// stays one clean JSON object, stdout otherwise.
func progress(asJSON bool) *os.File {
	if asJSON {
		return os.Stderr
	}
	return os.Stdout
}

// quantile reads the q-th quantile from an ascending-sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(10 * time.Microsecond)
}

// startCluster builds and starts the cluster's members — in process, or
// over loopback sockets — with reg as member 0's registry (every member's on
// a mesh, which has one configuration), and returns them with the func that
// stops them all.
func startCluster(cfg rt.Config, mesh bool, reg *obs.Registry) ([]*rt.Member, func(), error) {
	members := make([]*rt.Member, cfg.N)
	if mesh {
		cfg.Metrics = reg
		c, err := rt.NewMesh(cfg)
		if err != nil {
			return nil, nil, err
		}
		for i := range members {
			members[i] = c.Node(mid.ProcID(i))
		}
		c.Start()
		return members, c.Stop, nil
	}

	peers, err := loopbackPorts(cfg.N)
	if err != nil {
		return nil, nil, err
	}
	stop := func() {
		for _, m := range members {
			if m != nil {
				m.Stop()
			}
		}
	}
	for i := range members {
		mc := cfg
		mc.Self = mid.ProcID(i)
		mc.Peers = peers
		if i == 0 {
			mc.Metrics = reg
		}
		if members[i], err = rt.NewMember(mc); err != nil {
			stop()
			return nil, nil, err
		}
	}
	for _, m := range members {
		m.Start()
	}
	return members, stop, nil
}

// loopbackPorts reserves n distinct loopback UDP ports by binding and
// immediately releasing them; the cluster then binds the same addresses.
// The window between release and rebind is small and this is a load tool,
// not a production deployment.
func loopbackPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	conns := make([]*net.UDPConn, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns[i] = c
		addrs[i] = c.LocalAddr().String()
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs, nil
}
