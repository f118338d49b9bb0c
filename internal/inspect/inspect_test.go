package inspect

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/mid"
	"urcgc/internal/probe"
	"urcgc/internal/rt"
)

// fakeNode serves canned nodehttp responses for one member: the two
// endpoints an inspector reads.
type fakeNode struct {
	mu     sync.Mutex
	status rt.NodeStatus
	health *health.Status
	srv    *httptest.Server
}

// nodeStatus assembles a member's /status document from its per-group
// samples, in group order.
func nodeStatus(groups ...rt.Status) rt.NodeStatus {
	for g := range groups {
		groups[g].Group = uint32(g)
	}
	return rt.NodeStatus{ID: groups[0].ID, N: groups[0].N, Groups: groups}
}

func newFakeNode(t *testing.T, groups ...rt.Status) *fakeNode {
	t.Helper()
	f := &fakeNode{status: nodeStatus(groups...)}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch r.URL.Path {
		case "/status":
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(f.status)
		case "/healthz":
			if f.health == nil {
				http.NotFound(w, r)
				return
			}
			if !f.health.Healthy {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(f.health)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeNode) set(mut func(*fakeNode)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

// runningStatus builds a healthy member's status in one group.
func runningStatus(id, n int, stable int64) rt.Status {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	st := rt.Status{
		ID: mid.ProcID(id), N: n, Running: true,
		Subrun: 40, Coordinator: mid.ProcID(id % n),
		Processed: make(mid.SeqVector, n),
		StableTo:  make(mid.SeqVector, n),
		Alive:     alive,
	}
	for i := range st.StableTo {
		st.StableTo[i] = mid.Seq(stable / int64(n))
		st.Processed[i] = mid.Seq(stable/int64(n) + 1)
	}
	return st
}

// on points a sweep at the fakes.
func on(fakes ...*fakeNode) probe.Cluster {
	c := probe.Cluster{}
	for _, f := range fakes {
		c.Nodes = append(c.Nodes, f.srv.URL)
	}
	return c
}

// stalledIn is the /healthz verdict of a member whose own token-stall rule
// fired in group g: the decision subrun frozen for a full window.
func stalledIn(id, g int) *health.Status {
	return &health.Status{Node: mid.ProcID(id), Healthy: false, Reasons: []health.GroupReason{
		{Group: g, Rule: "token-stall", Reason: "no decision reached member since subrun 7 (33 subruns)"},
	}}
}

func collect(t *testing.T, cfg Config) Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return Collect(ctx, cfg)
}

func problemKinds(r Report) []string {
	out := make([]string, 0, len(r.Problems))
	for _, p := range r.Problems {
		out = append(out, p.Kind)
	}
	return out
}

func hasProblem(r Report, kind string) bool {
	for _, p := range r.Problems {
		if p.Kind == kind {
			return true
		}
	}
	return false
}

func TestHealthyCluster(t *testing.T) {
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 12)),
		newFakeNode(t, runningStatus(1, 3, 12)),
		newFakeNode(t, runningStatus(2, 3, 9)),
	}
	r := collect(t, Config{Cluster: on(fakes...)})
	if !r.Healthy || !r.ViewsAgree {
		t.Fatalf("healthy cluster flagged: %+v", r.Problems)
	}
	if r.MinFrontier != 9 || r.MaxFrontier != 12 {
		t.Fatalf("frontier bounds = [%d..%d], want [9..12]", r.MinFrontier, r.MaxFrontier)
	}
	if len(r.Nodes) != 3 || !r.Nodes[2].Reachable || r.Nodes[2].Status.ID != 2 {
		t.Fatalf("probes: %+v", r.Nodes)
	}
}

func TestUnreachableNode(t *testing.T) {
	f0 := newFakeNode(t, runningStatus(0, 2, 4))
	f1 := newFakeNode(t, runningStatus(1, 2, 4))
	dead := f1.srv.URL
	f1.srv.Close()
	r := collect(t, Config{Cluster: probe.Cluster{Nodes: []string{f0.srv.URL, dead}, Timeout: time.Second}})
	if r.Healthy || !hasProblem(r, "unreachable") {
		t.Fatalf("dead node not flagged: %v", problemKinds(r))
	}
	if r.Nodes[1].Reachable || r.Nodes[1].Err == "" {
		t.Fatalf("probe of dead node: %+v", r.Nodes[1])
	}
}

func TestLeftNode(t *testing.T) {
	st := runningStatus(1, 3, 6)
	st.Running = false
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 6)),
		newFakeNode(t, st),
		newFakeNode(t, runningStatus(2, 3, 6)),
	}
	r := collect(t, Config{Cluster: on(fakes...)})
	if r.Healthy || !hasProblem(r, "left") {
		t.Fatalf("departed member not flagged: %v", problemKinds(r))
	}
}

// TestTokenStall: a member whose own /healthz reports its token stalled is
// named, alone, as node-unhealthy with the group and the rule; a member
// whose token moves is not.
func TestTokenStall(t *testing.T) {
	frozen := newFakeNode(t, runningStatus(0, 2, 6))
	frozen.set(func(f *fakeNode) { f.health = stalledIn(0, 0) })
	moving := newFakeNode(t, runningStatus(1, 2, 6))
	moving.set(func(f *fakeNode) { f.health = &health.Status{Node: 1, Healthy: true} })
	r := collect(t, Config{Cluster: on(frozen, moving)})
	if r.Healthy || !hasProblem(r, "node-unhealthy") {
		t.Fatalf("frozen token not flagged: %v", problemKinds(r))
	}
	if len(r.Problems) != 1 {
		t.Fatalf("problems = %v, want the one stall", problemKinds(r))
	}
	if p := r.Problems[0]; len(p.Nodes) != 1 || p.Nodes[0] != frozen.srv.URL || !strings.Contains(p.Detail, "group 0 token-stall") {
		t.Fatalf("stall = %+v, want only the frozen node, with its group and rule", p)
	}
}

// TestTokenStallNeedsFullWindow: a freshly booted member's facts are fresh —
// its /healthz is healthy until one is W subruns old — and the inspector,
// which keeps no stall rule of its own, flags nothing.
func TestTokenStallNeedsFullWindow(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 0))
	f.set(func(fn *fakeNode) { fn.health = &health.Status{Node: 0, Healthy: true} })
	r := collect(t, Config{Cluster: on(f)})
	if !r.Healthy || len(r.Problems) != 0 {
		t.Fatalf("warming-up node flagged: %v", problemKinds(r))
	}
}

func TestFrontierSkewNamesLaggards(t *testing.T) {
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 120)),
		newFakeNode(t, runningStatus(1, 3, 117)),
		newFakeNode(t, runningStatus(2, 3, 3)), // partitioned away
	}
	r := collect(t, Config{Cluster: on(fakes...), FrontierSkew: 32})
	if r.Healthy || !hasProblem(r, "frontier-skew") {
		t.Fatalf("skew not flagged: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "frontier-skew" {
			if len(p.Nodes) != 1 || !strings.Contains(p.Nodes[0], fakes[2].srv.URL) {
				t.Fatalf("laggards = %v, want only node 2", p.Nodes)
			}
			if !strings.Contains(p.Detail, "member 2") {
				t.Fatalf("detail does not name the lagging member: %s", p.Detail)
			}
		}
	}
}

func TestProgressSkewNamesPartitionedNode(t *testing.T) {
	// An active partition from outside: stability frozen everywhere (equal
	// stable sums) while only the cut-off member stops processing.
	cut := runningStatus(2, 3, 30)
	cut.Processed = mid.SeqVector{10, 1, 1}
	majority := func(id int) rt.Status {
		st := runningStatus(id, 3, 30)
		st.Processed = mid.SeqVector{60, 60, 1}
		return st
	}
	fakes := []*fakeNode{
		newFakeNode(t, majority(0)),
		newFakeNode(t, majority(1)),
		newFakeNode(t, cut),
	}
	r := collect(t, Config{Cluster: on(fakes...), FrontierSkew: 32})
	if r.Healthy || !hasProblem(r, "progress-skew") {
		t.Fatalf("processing laggard not flagged: %v", problemKinds(r))
	}
	if hasProblem(r, "frontier-skew") {
		t.Fatalf("equal stable sums flagged as frontier skew: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "progress-skew" {
			if len(p.Nodes) != 1 || !strings.Contains(p.Nodes[0], fakes[2].srv.URL) {
				t.Fatalf("laggards = %v, want only the cut-off node", p.Nodes)
			}
		}
	}
}

func TestNodeUnhealthyCarriesReasons(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 6))
	f.set(func(fn *fakeNode) {
		fn.health = &health.Status{Node: 0, Healthy: false, Reasons: []health.GroupReason{
			{Group: 0, Rule: "token-stall", Reason: "frozen"},
		}}
	})
	r := collect(t, Config{Cluster: on(f)})
	if r.Healthy || !hasProblem(r, "node-unhealthy") {
		t.Fatalf("503 healthz not surfaced: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind == "node-unhealthy" && !strings.Contains(p.Detail, "token-stall") {
			t.Fatalf("reasons not carried through: %s", p.Detail)
		}
	}
}

// TestOneShotGraceClearsTransient pins the grace re-probe: divergence that
// heals between the two probes is not reported, divergence that persists is
// — and persistence is per (kind, group): a transient in one group followed
// by the same kind in another group is two transients, not one persistent
// problem.
func TestOneShotGraceClearsTransient(t *testing.T) {
	// disagree builds member 1's status with its view diverging in the
	// listed groups (of three).
	disagree := func(groups ...int) rt.NodeStatus {
		st := nodeStatus(runningStatus(1, 2, 6), runningStatus(1, 2, 6), runningStatus(1, 2, 6))
		for _, g := range groups {
			st.Groups[g].Alive = []bool{false, true}
		}
		return st
	}
	f0 := newFakeNode(t, runningStatus(0, 2, 6), runningStatus(0, 2, 6), runningStatus(0, 2, 6))
	f1 := newFakeNode(t, runningStatus(1, 2, 6))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := Config{Cluster: on(f0, f1), Grace: 300 * time.Millisecond}

	for _, second := range [][]int{nil, {2}} { // heals; moves to another group
		f1.set(func(fn *fakeNode) { fn.status = disagree(1) })
		go func() {
			time.Sleep(50 * time.Millisecond)
			f1.set(func(fn *fakeNode) { fn.status = disagree(second...) })
		}()
		if r := OneShot(ctx, cfg); !r.Healthy {
			t.Fatalf("transient divergence (then %v) reported as persistent: %+v", second, r.Problems)
		}
	}

	// Persistent divergence survives the grace re-probe.
	f1.set(func(fn *fakeNode) { fn.status = disagree(1) })
	cfg.Grace = 50 * time.Millisecond
	if r := OneShot(ctx, cfg); r.Healthy || !hasProblem(r, "view-divergence") {
		t.Fatalf("persistent divergence cleared: %v", problemKinds(r))
	}
}

func TestWatchEmitsSummaries(t *testing.T) {
	f := newFakeNode(t, runningStatus(0, 1, 6))
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	var buf strings.Builder
	r := Watch(ctx, Config{Cluster: on(f)}, 50*time.Millisecond, &buf)
	if !r.Healthy {
		t.Fatalf("watch final report unhealthy: %v", problemKinds(r))
	}
	lines := strings.Count(buf.String(), "\n")
	if lines < 2 || !strings.Contains(buf.String(), "healthy nodes=1/1") {
		t.Fatalf("watch output (%d lines): %q", lines, buf.String())
	}
}

func TestSummaryLine(t *testing.T) {
	r := Report{Healthy: true, ViewsAgree: true,
		Nodes:       []NodeProbe{{Reachable: true}, {Reachable: true}},
		MinFrontier: 3, MaxFrontier: 9}
	if got := Summary(r); got != "healthy nodes=2/2 views_agree=true frontier=[3..9]" {
		t.Fatalf("summary = %q", got)
	}
	r.Healthy = false
	r.Problems = []Problem{{Kind: "unreachable"}, {Kind: "frontier-skew"}, {Kind: "unreachable"}}
	if got := Summary(r); !strings.Contains(got, "UNHEALTHY [unreachable, frontier-skew]") {
		t.Fatalf("unhealthy summary = %q", got)
	}
}

// TestJoiningMemberIsInformational pins the rejoin grace: a member that is
// state-transferring back into one group trips none of the divergence
// rules its join legitimately causes there — the stale view mask, the
// frozen decision subrun, the lagging frontier — and is surfaced only as an
// informational "joining" problem against that group, which leaves the
// verdict healthy.
func TestJoiningMemberIsInformational(t *testing.T) {
	// Group 0 is in step everywhere. In group 1 the survivors still exclude
	// member 2; the joiner reports a full view from its sponsor's snapshot,
	// a frontier far behind, and no fresh decisions yet.
	survivor := runningStatus(0, 3, 120)
	survivor.Alive = []bool{true, true, false}
	joiner := runningStatus(2, 3, 3)
	joiner.Joining = true
	fakes := []*fakeNode{
		newFakeNode(t, runningStatus(0, 3, 12), survivor),
		newFakeNode(t, runningStatus(1, 3, 12), survivor),
		newFakeNode(t, runningStatus(2, 3, 12), joiner),
	}
	// Its own /healthz exempts the join from the token-stall rule its frozen
	// decision subrun would trip.
	fakes[2].set(func(f *fakeNode) {
		f.health = &health.Status{Node: 2, Healthy: true, Joining: true, Groups: []health.GroupVerdict{
			{Group: 0, Healthy: true}, {Group: 1, Healthy: true, Joining: true},
		}}
	})
	cfg := Config{Cluster: on(fakes...), FrontierSkew: 32}
	r := collect(t, cfg)
	if !r.Healthy {
		t.Fatalf("joining member flipped the verdict: %v", problemKinds(r))
	}
	if !r.ViewsAgree {
		t.Fatal("joiner's stale mask counted as view divergence")
	}
	if !hasProblem(r, "joining") {
		t.Fatalf("join not surfaced: %v", problemKinds(r))
	}
	for _, p := range r.Problems {
		if p.Kind != "joining" {
			t.Fatalf("rule fired on join evidence: %+v", p)
		}
		if !p.Informational || !strings.Contains(p.Detail, "member 2") || p.Group == nil || *p.Group != 1 {
			t.Fatalf("joining problem malformed or not scoped to group 1: %+v", p)
		}
	}
	if s := Summary(r); !strings.Contains(s, "healthy [joining]") {
		t.Fatalf("summary hides the join: %q", s)
	}

	// One-shot with a grace window: the informational problem must not
	// cost the exit-code verdict a re-probe round either.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg.Grace = 200 * time.Millisecond
	one := OneShot(ctx, cfg)
	if !one.Healthy || !hasProblem(one, "joining") {
		t.Fatalf("one-shot verdict with joiner: healthy=%v problems=%v", one.Healthy, problemKinds(one))
	}
}

// TestPerGroupProblems pins that every protocol rule judges each group on
// its own: a divergence confined to one group is reported against that
// group — with the group id in the Problem JSON — while the healthy group
// stays quiet.
func TestPerGroupProblems(t *testing.T) {
	// cluster builds three two-group members, every group in step — unless
	// cut, when member 2's group 1 is cut off: it stopped processing and its
	// view dropped member 0, while its group 0 stays in step.
	cluster := func(cut bool) []*fakeNode {
		var fakes []*fakeNode
		for id := 0; id < 3; id++ {
			g1 := runningStatus(id, 3, 198)
			if cut && id == 2 {
				g1.Processed, g1.Alive = mid.SeqVector{10, 0, 0}, []bool{false, true, true}
			}
			fakes = append(fakes, newFakeNode(t, runningStatus(id, 3, 198), g1))
		}
		return fakes
	}
	inGroup1 := func(r Report, kinds ...string) {
		t.Helper()
		seen := map[string]bool{}
		for _, p := range r.Problems {
			if p.Group == nil || *p.Group != 1 || !strings.Contains(p.Detail, "group 1") {
				t.Fatalf("problem not scoped to group 1: %+v", p)
			}
			seen[p.Kind] = true
		}
		for _, k := range kinds {
			if !seen[k] {
				t.Fatalf("want %v against group 1, got %v", kinds, problemKinds(r))
			}
		}
	}

	r := collect(t, Config{Cluster: on(cluster(true)...)})
	if r.Healthy || r.ViewsAgree {
		t.Fatalf("per-group divergence went undetected: healthy=%v views_agree=%v", r.Healthy, r.ViewsAgree)
	}
	inGroup1(r, "view-divergence", "progress-skew")
	for _, p := range r.Problems {
		if p.Kind == "view-divergence" && (!strings.Contains(p.Detail, "011") || !strings.Contains(p.Detail, "111")) {
			t.Fatalf("divergence detail lacks the masks: %s", p.Detail)
		}
	}
	raw, _ := json.Marshal(r.Problems[0])
	if !strings.Contains(string(raw), `"group":1`) {
		t.Fatalf("problem JSON lacks group: %s", raw)
	}

	// Group 1's token stops reaching member 2 while group 0's keeps
	// advancing there: member 2's own verdict names group 1 only, and the
	// report carries it through.
	stalled := cluster(false)
	stalled[2].set(func(f *fakeNode) { f.health = stalledIn(2, 1) })
	r = collect(t, Config{Cluster: on(stalled...)})
	if len(r.Problems) != 1 || r.Problems[0].Kind != "node-unhealthy" || r.Problems[0].Nodes[0] != stalled[2].srv.URL {
		t.Fatalf("want one stall naming member 2, got %+v", r.Problems)
	}
	if d := r.Problems[0].Detail; !strings.Contains(d, "group 1 token-stall") || strings.Contains(d, "group 0") {
		t.Fatalf("stall not scoped to group 1: %s", d)
	}

	// All groups in step: no problems.
	if healthy := collect(t, Config{Cluster: on(cluster(false)...)}); !healthy.Healthy {
		t.Fatalf("healthy multi-group cluster flagged: %v", problemKinds(healthy))
	}
}
