// Package stitch builds the first cross-node observability layer: it
// collects the /trace document of every member of a cluster (one
// lifecycle.MultiReport each, a report per hosted group) and joins the
// spans by (group, MID) into one stitched timeline per message. MIDs are only unique within a group — every group is an
// independent sequence space — so the group id is part of the join key;
// within a group the same MID names the same message on every member,
// which is what makes the join sound with no wire changes.
//
// From the joined spans it derives what no single node can see:
//
//   - broadcast→remote-deliver skew per member: the origin's BroadcastNs
//     against each remote member's ProcessedNs.
//   - causal-wait attribution: a span stuck waiting lists the MIDs
//     blocking it; the MID's proc field names the member whose missing
//     message blocks delivery, and a sweep over every node's spans tells
//     whether that dependency was ever seen anywhere.
//   - a top-N slowest-messages report across the whole cluster.
package stitch

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"urcgc/internal/lifecycle"
	"urcgc/internal/probe"
)

// Config configures one collection sweep.
type Config struct {
	// Cluster lists every member's observability address and bounds each
	// request.
	probe.Cluster
	// Group restricts the sweep to one group id; -1 collects every hosted
	// group.
	Group int
	// Slow and Recent size each node's report (default 32 each).
	Slow, Recent int
}

// NodeTrace is one member's collected reports (one per hosted group), or
// the error that prevented collection.
type NodeTrace struct {
	Addr    string             `json:"addr"`
	Err     string             `json:"err,omitempty"`
	Reports []lifecycle.Report `json:"reports,omitempty"`
}

// Collect fetches /trace from every node in parallel. Unreachable nodes
// are reported, not fatal: a stitched view of the reachable majority is
// still useful.
func Collect(cfg Config) []NodeTrace {
	if cfg.Slow == 0 {
		cfg.Slow = 32
	}
	if cfg.Recent == 0 {
		cfg.Recent = 32
	}
	path := fmt.Sprintf("/trace?slow=%d&recent=%d", cfg.Slow, cfg.Recent)
	if cfg.Group >= 0 {
		path += fmt.Sprintf("&group=%d", cfg.Group)
	}
	return probe.Fanout(cfg.Nodes, func(_ int, addr string) NodeTrace {
		nt := NodeTrace{Addr: addr}
		var rep lifecycle.MultiReport
		if err := cfg.GetJSON(context.Background(), probe.NormalizeAddr(addr), path, &rep); err != nil {
			nt.Err = err.Error()
		}
		nt.Reports = rep.Groups
		return nt
	})
}

// Observation is one member's view of one message.
type Observation struct {
	Node int                `json:"node"`
	Span lifecycle.SpanView `json:"span"`
}

// Attribution names the missing dependency blocking a stuck message: the
// dependency MID, the member whose message it is (the MID's proc), and
// whether any collected node has a span for it at all.
type Attribution struct {
	DepMID       string `json:"dep_mid"`
	DepMember    int    `json:"dep_member"`
	SeenAnywhere bool   `json:"seen_anywhere"`
}

// Message is one stitched cross-node timeline.
type Message struct {
	Group  int    `json:"group"`
	MID    string `json:"mid"`
	Origin int    `json:"origin"`
	// BroadcastNs is the origin's broadcast stamp (0 if the origin's span
	// was not collected).
	BroadcastNs int64 `json:"broadcast_ns,omitempty"`
	// Observations holds each member's span, ordered by node id.
	Observations []Observation `json:"observations"`
	// DeliverSkewNs maps a remote member to ProcessedNs − BroadcastNs:
	// how long after the origin's broadcast that member processed the
	// message. Clock skew between hosts is included by construction; on
	// one host (or with synchronized clocks) it is the true deliver skew.
	DeliverSkewNs map[int]int64 `json:"deliver_skew_ns,omitempty"`
	// StuckAt lists the members where the message is flagged stuck
	// waiting; Blocked attributes the dependencies that block it.
	StuckAt []int         `json:"stuck_at,omitempty"`
	Blocked []Attribution `json:"blocked,omitempty"`
	// SlownessSeconds ranks the message: its worst end-to-end time across
	// members, or its oldest in-flight age if unfinished anywhere.
	SlownessSeconds float64 `json:"slowness_seconds"`
}

// Report is the stitched cross-cluster view.
type Report struct {
	Nodes    []NodeTrace `json:"nodes"`
	Messages []*Message  `json:"messages"`
}

type joinKey struct {
	group int
	mid   string
}

// parseMID extracts the proc field of the canonical "p<proc>#<seq>" MID
// rendering; ok is false for the zero MID or foreign formats.
func parseMID(s string) (proc int, ok bool) {
	if !strings.HasPrefix(s, "p") {
		return 0, false
	}
	rest, _, found := strings.Cut(s[1:], "#")
	if !found {
		return 0, false
	}
	n := 0
	for _, r := range rest {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	return n, len(rest) > 0
}

// Stitch joins every collected span by (group, MID) and derives the
// cross-node timeline of each message, ranked slowest first.
func Stitch(nodes []NodeTrace) *Report {
	byKey := make(map[joinKey]*Message)
	ordered := []*Message{}
	get := func(group int, mid string) *Message {
		k := joinKey{group, mid}
		m, ok := byKey[k]
		if !ok {
			m = &Message{Group: group, MID: mid}
			if proc, ok := parseMID(mid); ok {
				m.Origin = proc
			}
			byKey[k] = m
			ordered = append(ordered, m)
		}
		return m
	}
	for _, nt := range nodes {
		for _, rep := range nt.Reports {
			for _, sv := range rep.Slowest {
				obs := Observation{Node: rep.Node, Span: sv}
				get(rep.Group, sv.MID).Observations = append(get(rep.Group, sv.MID).Observations, obs)
			}
			for _, sv := range rep.Recent {
				obs := Observation{Node: rep.Node, Span: sv}
				get(rep.Group, sv.MID).Observations = append(get(rep.Group, sv.MID).Observations, obs)
			}
		}
	}
	for _, m := range ordered {
		finish(m, byKey)
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].SlownessSeconds > ordered[j].SlownessSeconds
	})
	return &Report{Nodes: nodes, Messages: ordered}
}

// finish derives one message's cross-node facts from its joined spans.
func finish(m *Message, byKey map[joinKey]*Message) {
	sort.Slice(m.Observations, func(i, j int) bool {
		return m.Observations[i].Node < m.Observations[j].Node
	})
	for _, o := range m.Observations {
		if o.Node == m.Origin && o.Span.BroadcastNs != 0 {
			m.BroadcastNs = o.Span.BroadcastNs
		}
	}
	seenDeps := map[string]bool{}
	for _, o := range m.Observations {
		s := o.Span
		if m.BroadcastNs != 0 && o.Node != m.Origin && s.ProcessedNs != 0 {
			if m.DeliverSkewNs == nil {
				m.DeliverSkewNs = map[int]int64{}
			}
			m.DeliverSkewNs[o.Node] = s.ProcessedNs - m.BroadcastNs
		}
		if s.EndToEndSeconds > m.SlownessSeconds {
			m.SlownessSeconds = s.EndToEndSeconds
		}
		if s.Outcome == "in-flight" && s.AgeSeconds > m.SlownessSeconds {
			m.SlownessSeconds = s.AgeSeconds
		}
		if s.Stuck {
			m.StuckAt = append(m.StuckAt, o.Node)
			for _, dep := range s.Blocking {
				if seenDeps[dep] {
					continue
				}
				seenDeps[dep] = true
				at := Attribution{DepMID: dep, DepMember: -1}
				if proc, ok := parseMID(dep); ok {
					at.DepMember = proc
				}
				_, at.SeenAnywhere = byKey[joinKey{m.Group, dep}]
				m.Blocked = append(m.Blocked, at)
			}
		}
	}
}

// Top returns the n slowest stitched messages (all of them when n <= 0).
func (r *Report) Top(n int) []*Message {
	if n <= 0 || n > len(r.Messages) {
		n = len(r.Messages)
	}
	return r.Messages[:n]
}

// Write renders the stitched report as the operator-facing text summary.
func (r *Report) Write(w io.Writer, topN int) {
	reachable, reports := 0, 0
	for _, nt := range r.Nodes {
		if nt.Err == "" {
			reachable++
			reports += len(nt.Reports)
		} else {
			fmt.Fprintf(w, "node %s unreachable: %s\n", nt.Addr, nt.Err)
		}
	}
	fmt.Fprintf(w, "stitched %d messages from %d/%d nodes (%d group reports)\n",
		len(r.Messages), reachable, len(r.Nodes), reports)
	for _, m := range r.Top(topN) {
		fmt.Fprintf(w, "\n%s group %d origin member %d  slowness %.6fs\n",
			m.MID, m.Group, m.Origin, m.SlownessSeconds)
		for _, o := range m.Observations {
			s := o.Span
			line := fmt.Sprintf("  node %d: %s", o.Node, s.Outcome)
			if skew, ok := m.DeliverSkewNs[o.Node]; ok {
				line += fmt.Sprintf("  broadcast→deliver %+.6fs", float64(skew)/1e9)
			}
			if s.StabilityLagSeconds > 0 {
				line += fmt.Sprintf("  stab-lag %.6fs", s.StabilityLagSeconds)
			}
			fmt.Fprintln(w, line)
		}
		for _, b := range m.Blocked {
			where := "never seen on any collected node"
			if b.SeenAnywhere {
				where = "in flight elsewhere"
			}
			fmt.Fprintf(w, "  BLOCKED at nodes %v on %s — member %d's missing message (%s)\n",
				m.StuckAt, b.DepMID, b.DepMember, where)
		}
	}
}
