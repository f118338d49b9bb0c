// Package nodehttp assembles the observability HTTP surface of one live
// member. cmd/urcgc-node and the inspect and stitch live tests all serve
// the same mux, so urcgc-ctl talks to one endpoint shape everywhere — and
// each endpoint has one response shape, indexed by hosted group, whether the
// member hosts one group or many:
//
//	/metrics     Prometheus text exposition of the registry
//	/status      protocol state of every hosted group; text by default,
//	             ?format=json for the rt.NodeStatus document
//	/healthz     health.Status verdict on the /status document (200
//	             healthy / 503 + the {group, rule, reason} triples)
//	/timeseries  the flight recorder's gauge window as JSON
//	/events      recent trace events
//	/trace       lifecycle.MultiReport of every group's message spans
//	             (?group=N keeps only that group's element)
//	/capture     flight-recorder frame dump (binary; ?decode=1 for JSON)
//	/debug/*     expvar + pprof (opt-in)
package nodehttp

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"urcgc/internal/capture"
	"urcgc/internal/health"
	"urcgc/internal/lifecycle"
	"urcgc/internal/obs"
	"urcgc/internal/rt"
)

// Options configure the mux. Registry is required; every nil optional
// field simply leaves its endpoint unmounted (404).
type Options struct {
	// Registry backs /metrics and /events.
	Registry *obs.Registry
	// Flight, if set, backs /timeseries.
	Flight *obs.Flight
	// Status, if set, backs /status and /healthz. It must be safe to call
	// from any goroutine (rt.Member.Status is).
	Status func(ctx context.Context) (rt.NodeStatus, error)
	// Lifecycle, if set, backs /trace with the member's span tracers
	// indexed by group id; returning none reports tracing disabled.
	Lifecycle func() []*lifecycle.Tracer
	// Capture, if set, backs /capture with the member's frame flight
	// recorder: the versioned binary dump by default (what `urcgc-ctl
	// replay` ingests), or decoded JSON with ?decode=1.
	Capture *capture.Ring
	// Pprof mounts /debug/vars and /debug/pprof.
	Pprof bool
	// StatusTimeout bounds one /status sample; 0 means 2s.
	StatusTimeout time.Duration
}

// Mux builds the endpoint surface.
func Mux(o Options) *http.ServeMux {
	mux := http.NewServeMux()
	if o.Registry != nil {
		mux.Handle("/metrics", o.Registry.Handler())
		mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			evs := o.Registry.Events().Events()
			fmt.Fprintf(w, "events total=%d dropped=%d shown=%d\n",
				o.Registry.Events().Total(), o.Registry.Events().Dropped(), len(evs))
			for _, e := range evs {
				fmt.Fprintf(w, "%s %s\n", e.At.Format("15:04:05.000"), e.Msg)
			}
		})
	}
	if o.Flight != nil {
		mux.Handle("/timeseries", o.Flight.Handler())
	}
	if o.Status != nil {
		timeout := o.StatusTimeout
		if timeout <= 0 {
			timeout = 2 * time.Second
		}
		status := func(ctx context.Context) (rt.NodeStatus, error) {
			ctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			return o.Status(ctx)
		}
		mux.Handle("/healthz", health.Handler(status))
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			st, err := status(r.Context())
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			if r.URL.Query().Get("format") == "json" {
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(st)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteStatusText(w, st)
		})
	}
	if o.Lifecycle != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			trs := o.Lifecycle()
			if len(trs) == 0 {
				http.Error(w, "lifecycle tracing disabled (-trace-slow 0)", http.StatusNotFound)
				return
			}
			if gq := r.URL.Query().Get("group"); gq != "" {
				g, err := strconv.Atoi(gq)
				if err != nil || g < 0 || g >= len(trs) {
					http.Error(w, fmt.Sprintf("group %q outside [0,%d)", gq, len(trs)), http.StatusBadRequest)
					return
				}
				trs = trs[g : g+1]
			}
			slowN := queryInt(r, "slow", 10)
			recentN := queryInt(r, "recent", 25)
			var rep lifecycle.MultiReport
			for _, tr := range trs {
				gr := tr.Report(slowN, recentN)
				rep.Node = gr.Node
				rep.Groups = append(rep.Groups, gr)
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
		})
	}
	if o.Capture != nil {
		mux.HandleFunc("/capture", func(w http.ResponseWriter, r *http.Request) {
			dump := o.Capture.Snapshot()
			if r.URL.Query().Get("decode") == "1" {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(dump.View())
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_ = dump.Encode(w)
		})
	}
	if o.Pprof {
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// WriteStatusText renders the human-readable /status body: the member's
// identity, then one block per hosted group.
func WriteStatusText(w http.ResponseWriter, st rt.NodeStatus) {
	fmt.Fprintf(w, "id         %d of %d, %d groups\n", st.ID, st.N, len(st.Groups))
	for _, g := range st.Groups {
		fmt.Fprintf(w, "group %-4d running %v, subrun %d+%d (coordinator %d)\n", g.Group, g.Running, g.Subrun, g.Early, g.Coordinator)
		if g.Joining {
			fmt.Fprintf(w, "  joining    true (state transfer in progress)\n")
		}
		fmt.Fprintf(w, "  processed  %v\n", g.Processed)
		fmt.Fprintf(w, "  stable_to  %v\n", g.StableTo)
		fmt.Fprintf(w, "  alive      %v\n", g.Alive)
		fmt.Fprintf(w, "  history    %d by-sender %v\n", g.HistoryLen, g.HistoryBySender)
		fmt.Fprintf(w, "  waiting    %d\n", g.WaitingLen)
		fmt.Fprintf(w, "  pending    %d\n", g.Pending)
		fmt.Fprintf(w, "  stats      %+v\n", g.Stats)
	}
}

// Serve binds addr and serves the handler in the background, returning
// the listener (for its bound address and for Close).
func Serve(addr string, h http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, h) }()
	return ln, nil
}

// queryInt reads a positive integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) int {
	v, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil || v < 0 {
		return def
	}
	return v
}
