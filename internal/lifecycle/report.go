package lifecycle

import (
	"fmt"
	"io"
	"time"
)

// SpanView is the export shape of one span: stage timestamps plus the
// derived durations an operator actually wants, JSON-ready for /trace.
type SpanView struct {
	MID      string   `json:"mid"`
	Outcome  string   `json:"outcome"`
	Stuck    bool     `json:"stuck,omitempty"`
	Blocking []string `json:"blocking,omitempty"`

	Generated string `json:"generated,omitempty"`
	Broadcast string `json:"broadcast,omitempty"`
	Waiting   string `json:"waiting,omitempty"`
	Decided   string `json:"decided,omitempty"`
	Processed string `json:"processed,omitempty"`
	Discarded string `json:"discarded,omitempty"`
	Stable    string `json:"stable,omitempty"`

	// The same stamps as absolute unix nanoseconds, machine-joinable:
	// the cross-node stitcher (internal/stitch) subtracts them across
	// members' reports, which the date-less display strings cannot do.
	FirstSeenNs int64 `json:"first_seen_ns,omitempty"`
	GeneratedNs int64 `json:"generated_ns,omitempty"`
	BroadcastNs int64 `json:"broadcast_ns,omitempty"`
	WaitingNs   int64 `json:"waiting_ns,omitempty"`
	DecidedNs   int64 `json:"decided_ns,omitempty"`
	ProcessedNs int64 `json:"processed_ns,omitempty"`
	DiscardedNs int64 `json:"discarded_ns,omitempty"`
	StableNs    int64 `json:"stable_ns,omitempty"`

	// AgeSeconds is how long an in-flight span has been tracked.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// WaitSeconds is the waiting-list residence so far (or total).
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	// EndToEndSeconds is first-seen→terminal for completed spans.
	EndToEndSeconds float64 `json:"end_to_end_seconds,omitempty"`
	// StabilityLagSeconds is processed→uniformly-stable, when both known.
	StabilityLagSeconds float64 `json:"stability_lag_seconds,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format("15:04:05.000000")
}

func stampNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// View renders a span relative to now (for in-flight ages).
func (s *Span) View(now time.Time) SpanView {
	v := SpanView{
		MID:       s.ID.String(),
		Outcome:   s.Outcome.String(),
		Stuck:     s.Stuck,
		Generated: stamp(s.GeneratedAt),
		Broadcast: stamp(s.BroadcastAt),
		Waiting:   stamp(s.WaitingAt),
		Decided:   stamp(s.DecidedAt),
		Processed: stamp(s.ProcessedAt),
		Discarded: stamp(s.DiscardedAt),
		Stable:    stamp(s.StableAt),

		FirstSeenNs: stampNs(s.FirstSeen),
		GeneratedNs: stampNs(s.GeneratedAt),
		BroadcastNs: stampNs(s.BroadcastAt),
		WaitingNs:   stampNs(s.WaitingAt),
		DecidedNs:   stampNs(s.DecidedAt),
		ProcessedNs: stampNs(s.ProcessedAt),
		DiscardedNs: stampNs(s.DiscardedAt),
		StableNs:    stampNs(s.StableAt),
	}
	for _, b := range s.Blocking {
		v.Blocking = append(v.Blocking, b.String())
	}
	if s.done() {
		v.EndToEndSeconds = s.EndToEnd().Seconds()
		if !s.WaitingAt.IsZero() && !s.ProcessedAt.IsZero() {
			v.WaitSeconds = s.ProcessedAt.Sub(s.WaitingAt).Seconds()
		}
		if !s.ProcessedAt.IsZero() && !s.StableAt.IsZero() && s.StableAt.After(s.ProcessedAt) {
			v.StabilityLagSeconds = s.StableAt.Sub(s.ProcessedAt).Seconds()
		}
	} else {
		if !s.FirstSeen.IsZero() {
			v.AgeSeconds = now.Sub(s.FirstSeen).Seconds()
		}
		if !s.WaitingAt.IsZero() {
			v.WaitSeconds = now.Sub(s.WaitingAt).Seconds()
		}
	}
	return v
}

// Report is the /trace payload: accounting, the slowest in-flight spans
// (the watchdog's view), and the most recently completed ones.
type Report struct {
	Node int `json:"node"`
	// Group is the hosted-group id. MIDs recur across groups — each group is an independent sequence
	// space — so (group, mid) is the cross-node join key, not mid alone.
	Group         int        `json:"group"`
	Now           string     `json:"now"`
	NowNs         int64      `json:"now_ns,omitempty"`
	SlowThreshold string     `json:"slow_threshold"`
	Counts        Counts     `json:"counts"`
	Slowest       []SpanView `json:"slowest_in_flight,omitempty"`
	Recent        []SpanView `json:"recent_completed,omitempty"`
}

// MultiReport is the /trace payload of a member: one Report per hosted
// group, or only the one a ?group=N filter asked for.
type MultiReport struct {
	Node   int      `json:"node"`
	Groups []Report `json:"groups"`
}

// Report assembles the export payload with up to slowN in-flight and
// recentN completed spans. It runs the watchdog first so freshly stuck
// spans are flagged in the same response that shows them.
func (t *Tracer) Report(slowN, recentN int) Report {
	if t == nil {
		return Report{}
	}
	t.Tick()
	now := t.clock()
	r := Report{
		Node:          int(t.node),
		Group:         t.group,
		Now:           stamp(now),
		NowNs:         stampNs(now),
		SlowThreshold: t.opts.SlowThreshold.String(),
		Counts:        t.Counts(),
	}
	for _, s := range t.SlowestInFlight(slowN) {
		s := s
		r.Slowest = append(r.Slowest, s.View(now))
	}
	for _, s := range t.Recent(recentN) {
		s := s
		r.Recent = append(r.Recent, s.View(now))
	}
	return r
}

// WriteSlowest renders the n slowest completed spans as an aligned table —
// the shutdown-summary evidence a short run leaves behind.
func (t *Tracer) WriteSlowest(w io.Writer, n int) {
	spans := t.TopSlowest(n)
	if len(spans) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-10s %-10s %12s %12s %12s\n", "mid", "outcome", "end-to-end", "waited", "stab-lag")
	for i := range spans {
		s := &spans[i]
		wait, lag := time.Duration(0), time.Duration(0)
		if !s.WaitingAt.IsZero() && !s.ProcessedAt.IsZero() {
			wait = s.ProcessedAt.Sub(s.WaitingAt)
		}
		if !s.ProcessedAt.IsZero() && s.StableAt.After(s.ProcessedAt) {
			lag = s.StableAt.Sub(s.ProcessedAt)
		}
		fmt.Fprintf(w, "  %-10s %-10s %12s %12s %12s\n",
			s.ID, s.Outcome, s.EndToEnd().Round(time.Microsecond),
			wait.Round(time.Microsecond), lag.Round(time.Microsecond))
	}
}
