package stitch

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"urcgc/internal/lifecycle"
	"urcgc/internal/probe"
)

func span(mid, outcome string) lifecycle.SpanView {
	return lifecycle.SpanView{MID: mid, Outcome: outcome}
}

// TestStitchJoinsByGroupAndMID pins the join key: the same MID in two
// groups is two different messages, and the same (group, MID) across two
// nodes is one.
func TestStitchJoinsByGroupAndMID(t *testing.T) {
	nodes := []NodeTrace{
		{Addr: "a", Reports: []lifecycle.Report{
			{Node: 0, Group: 0, Recent: []lifecycle.SpanView{span("p0#1", "processed")}},
			{Node: 0, Group: 1, Recent: []lifecycle.SpanView{span("p0#1", "processed")}},
		}},
		{Addr: "b", Reports: []lifecycle.Report{
			{Node: 1, Group: 0, Recent: []lifecycle.SpanView{span("p0#1", "processed")}},
		}},
	}
	r := Stitch(nodes)
	if len(r.Messages) != 2 {
		t.Fatalf("stitched %d messages, want 2 (MID recurs across groups)", len(r.Messages))
	}
	byGroup := map[int]*Message{}
	for _, m := range r.Messages {
		byGroup[m.Group] = m
	}
	if len(byGroup[0].Observations) != 2 || len(byGroup[1].Observations) != 1 {
		t.Fatalf("observations: group0=%d group1=%d, want 2/1",
			len(byGroup[0].Observations), len(byGroup[1].Observations))
	}
	if byGroup[0].Origin != 0 {
		t.Fatalf("origin = %d, want 0", byGroup[0].Origin)
	}
}

// TestStitchDeliverSkew checks the broadcast→remote-deliver arithmetic
// against hand-computed stamps.
func TestStitchDeliverSkew(t *testing.T) {
	origin := span("p0#3", "processed")
	origin.BroadcastNs = 1_000_000
	origin.ProcessedNs = 1_200_000
	origin.EndToEndSeconds = 0.0002
	remote := span("p0#3", "processed")
	remote.ProcessedNs = 1_750_000
	remote.EndToEndSeconds = 0.00075
	nodes := []NodeTrace{
		{Reports: []lifecycle.Report{{Node: 0, Group: 2, Recent: []lifecycle.SpanView{origin}}}},
		{Reports: []lifecycle.Report{{Node: 1, Group: 2, Recent: []lifecycle.SpanView{remote}}}},
	}
	r := Stitch(nodes)
	if len(r.Messages) != 1 {
		t.Fatalf("stitched %d messages", len(r.Messages))
	}
	m := r.Messages[0]
	if m.BroadcastNs != 1_000_000 {
		t.Fatalf("broadcast = %d", m.BroadcastNs)
	}
	if got := m.DeliverSkewNs[1]; got != 750_000 {
		t.Fatalf("deliver skew = %d, want 750000", got)
	}
	if _, ok := m.DeliverSkewNs[0]; ok {
		t.Fatal("origin must not have a deliver skew against itself")
	}
	if m.SlownessSeconds != 0.00075 {
		t.Fatalf("slowness = %v, want the worst member's 0.00075", m.SlownessSeconds)
	}
}

// TestStitchBlockedAttribution pins the acceptance shape: a message stuck
// waiting names the blocking member (the dependency MID's proc) and the
// dependency MID, and reports whether the dependency exists anywhere.
func TestStitchBlockedAttribution(t *testing.T) {
	stuck := span("p0#2", "in-flight")
	stuck.Stuck = true
	stuck.AgeSeconds = 4.2
	stuck.Blocking = []string{"p1#999"}
	nodes := []NodeTrace{
		{Reports: []lifecycle.Report{{Node: 2, Group: 0, Slowest: []lifecycle.SpanView{stuck}}}},
	}
	r := Stitch(nodes)
	m := r.Messages[0]
	if len(m.Blocked) != 1 {
		t.Fatalf("blocked = %+v", m.Blocked)
	}
	b := m.Blocked[0]
	if b.DepMID != "p1#999" || b.DepMember != 1 || b.SeenAnywhere {
		t.Fatalf("attribution = %+v, want member 1's unseen p1#999", b)
	}
	if len(m.StuckAt) != 1 || m.StuckAt[0] != 2 {
		t.Fatalf("stuck at %v", m.StuckAt)
	}
	if m.SlownessSeconds != 4.2 {
		t.Fatalf("slowness = %v (in-flight age must rank)", m.SlownessSeconds)
	}
	var sb strings.Builder
	r.Write(&sb, 5)
	out := sb.String()
	if !strings.Contains(out, "p1#999") || !strings.Contains(out, "member 1") {
		t.Fatalf("text report does not name the blocking member and MID:\n%s", out)
	}
}

// TestStitchRanksSlowestFirst checks Top ordering.
func TestStitchRanksSlowestFirst(t *testing.T) {
	fast := span("p0#1", "processed")
	fast.EndToEndSeconds = 0.001
	slow := span("p0#2", "processed")
	slow.EndToEndSeconds = 0.5
	nodes := []NodeTrace{
		{Reports: []lifecycle.Report{{Node: 0, Group: 0, Recent: []lifecycle.SpanView{fast, slow}}}},
	}
	top := Stitch(nodes).Top(1)
	if len(top) != 1 || top[0].MID != "p0#2" {
		t.Fatalf("top = %+v", top)
	}
}

// TestCollectOneShape serves a two-group member, a one-group member and
// one dead address: Collect decodes the one /trace document either serves,
// passes the group filter through, and tolerates the failure.
func TestCollectOneShape(t *testing.T) {
	member := func(node int, groups ...int) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rep := lifecycle.MultiReport{Node: node}
			for _, g := range groups {
				if q := r.URL.Query().Get("group"); q == "" || q == strconv.Itoa(g) {
					rep.Groups = append(rep.Groups, lifecycle.Report{
						Node: node, Group: g, Recent: []lifecycle.SpanView{span("p0#1", "processed")},
					})
				}
			}
			_ = json.NewEncoder(w).Encode(rep)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	two, one := member(0, 0, 1), member(1, 0)
	on := probe.Cluster{Nodes: []string{two.URL, one.URL, "127.0.0.1:1"}}

	nodes := Collect(Config{Cluster: on, Group: -1})
	if nodes[0].Err != "" || len(nodes[0].Reports) != 2 {
		t.Fatalf("two-group node: %+v", nodes[0])
	}
	if nodes[1].Err != "" || len(nodes[1].Reports) != 1 {
		t.Fatalf("one-group node: %+v", nodes[1])
	}
	if nodes[2].Err == "" {
		t.Fatal("dead node reported no error")
	}
	if r := Stitch(nodes); len(r.Messages) != 2 {
		t.Fatalf("stitched %d messages, want 2", len(r.Messages))
	}

	nodes = Collect(Config{Cluster: on, Group: 1})
	if len(nodes[0].Reports) != 1 || nodes[0].Reports[0].Group != 1 || len(nodes[1].Reports) != 0 {
		t.Fatalf("group=1 sweep: %+v / %+v", nodes[0].Reports, nodes[1].Reports)
	}
}

func TestParseMID(t *testing.T) {
	if p, ok := parseMID("p12#34"); !ok || p != 12 {
		t.Fatalf("parseMID(p12#34) = %d,%v", p, ok)
	}
	for _, bad := range []string{"", "p?#0", "x1#2", "p#2", "p1x#2"} {
		if _, ok := parseMID(bad); ok {
			t.Fatalf("parseMID(%q) accepted", bad)
		}
	}
}
