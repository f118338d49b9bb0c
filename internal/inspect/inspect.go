// Package inspect reconstructs the cluster-wide protocol picture from two
// of the per-node observability endpoints of the nodehttp surface: /status,
// the protocol state of every hosted group, and /healthz, the member's own
// verdict on that state. One probe per node yields a Report:
// per hosted group, the view agreement, the token position each member
// believes, the min/max stability frontier and per-sender history
// occupancy. The unit of agreement is the group, so every protocol rule
// runs once per group over that group's status, and names the group it
// fired for (one group is simply G = 1). The rules here are the ones only a
// comparison across members can make; what a member can judge of itself —
// a stalled token, a stalled frontier — it judges in /healthz, and the
// inspector carries that verdict through rather than judging it again:
//
//   - unreachable:      a node did not answer its /status probe.
//   - left:             a member answered but no longer runs the protocol
//     in the group (it left — suicide, recovery
//     exhaustion or coordinator silence).
//   - view-divergence:  two members disagree about who is alive. Benign
//     while a crash propagates, so one-shot probes give
//     it a grace re-probe before declaring it real.
//   - frontier-skew:    the stability frontiers (sum of the clean vector
//     from the freshest full-group decision) have spread
//     wider than the threshold; the lagging members are
//     named, since they are the ones holding back
//     uniform delivery and history cleaning (Fig. 6).
//   - progress-skew:    the processed counts have spread wider than the
//     threshold — the outside view of an active
//     partition, which halts stability group-wide while
//     only the cut-off members stop processing; again
//     the laggards are named.
//   - joining:          a member is state-transferring back into the
//     group; informational, and it exempts the member
//     from the rules its join legitimately trips.
//   - node-unhealthy:   the node's own /healthz verdict is 503; its
//     machine-readable reasons are carried through ("group 1
//     token-stall": the rotating token no longer reaches
//     the member in group 1).
//
// The package is transport-only glue plus pure diagnosis rules; it embeds
// no protocol logic beyond reading the state the runtime reports.
package inspect

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"urcgc/internal/health"
	"urcgc/internal/probe"
	"urcgc/internal/rt"
)

// Config tells the collector where the nodes are and how strict to be.
type Config struct {
	// Cluster lists the nodes and bounds each HTTP request.
	probe.Cluster
	// Grace is how long OneShot waits before re-probing to confirm that
	// view divergence (and other problems) persist; 0 skips the re-probe.
	Grace time.Duration
	// FrontierSkew is the max-min stability-frontier spread tolerated
	// before lagging nodes are flagged; 0 means 64.
	FrontierSkew int64
}

func (c Config) withDefaults() Config {
	if c.FrontierSkew <= 0 {
		c.FrontierSkew = 64
	}
	return c
}

// NodeProbe is everything learned about one node in one probe.
type NodeProbe struct {
	// Addr is the node's normalized base URL.
	Addr string `json:"addr"`
	// Reachable reports whether the /status probe succeeded.
	Reachable bool `json:"reachable"`
	// Err holds the probe error when unreachable.
	Err string `json:"error,omitempty"`
	// Status is the node's protocol state (from /status?format=json).
	Status *rt.NodeStatus `json:"status,omitempty"`
	// Health is the node's own verdict (from /healthz), if served.
	Health *health.Status `json:"health,omitempty"`
}

// Problem is one detected divergence.
type Problem struct {
	// Kind is "unreachable", "left", "view-divergence", "frontier-skew",
	// "progress-skew", "node-unhealthy" or "joining".
	Kind string `json:"kind"`
	// Group is the group the problem was found in; nil only for the kinds
	// about the node itself ("unreachable", "node-unhealthy").
	Group *uint32 `json:"group,omitempty"`
	// Nodes are the addresses involved (for frontier-skew, the laggards).
	Nodes []string `json:"nodes,omitempty"`
	// Detail elaborates with the numbers.
	Detail string `json:"detail"`
	// Informational marks kinds that describe expected transients (a
	// member mid-join) rather than divergence: they are reported but do
	// not flip Report.Healthy or the one-shot exit code.
	Informational bool `json:"informational,omitempty"`
}

// Report is the reconstructed global picture, the JSON shape `urcgc-ctl
// inspect` prints in one-shot mode.
type Report struct {
	// Healthy is true when no problems were detected.
	Healthy bool `json:"healthy"`
	// Nodes holds one probe per configured address, in input order.
	Nodes []NodeProbe `json:"nodes"`
	// Problems lists every detected divergence.
	Problems []Problem `json:"problems,omitempty"`
	// MinFrontier/MaxFrontier bound the stability frontiers observed
	// across every group of every reachable node (both 0 when none are
	// reachable).
	MinFrontier int64 `json:"min_frontier"`
	MaxFrontier int64 `json:"max_frontier"`
	// ViewsAgree reports whether, in every group, every reachable running
	// member holds the same alive mask.
	ViewsAgree bool `json:"views_agree"`
}

// probeNode collects one node's picture. Only the /status fetch is fatal
// to the probe; a node that serves no /healthz still inspects.
func probeNode(ctx context.Context, cfg Config, addr string) NodeProbe {
	p := NodeProbe{Addr: addr}
	var st rt.NodeStatus
	if err := cfg.GetJSON(ctx, addr, "/status?format=json", &st); err != nil {
		p.Err = err.Error()
		return p
	}
	p.Reachable, p.Status = true, &st

	// /healthz answers 200 or 503; both carry the JSON verdict.
	var h health.Status
	if cfg.GetJSON(ctx, addr, "/healthz", &h, http.StatusServiceUnavailable) == nil {
		p.Health = &h
	}
	return p
}

// maskString renders an alive mask compactly: "101" = member 1 crashed.
func maskString(alive []bool) string {
	var b strings.Builder
	for _, a := range alive {
		if a {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// entity is one reachable member's protocol entity in one group: the unit
// every protocol rule judges.
type entity struct {
	addr string
	st   *rt.Status
	// joining reports the entity mid-join: its own status says so, or its
	// /healthz verdict for the group does.
	// A joiner's stale view and lagging frontier are the join, not a
	// fault, so the divergence rules skip it.
	joining bool
}

// skewProblem flags a spread wider than the threshold in one per-entity
// quantity, naming the members that trail the leader by more than it.
func skewProblem(members []entity, threshold int64, kind, what string, value func(entity) int64) []Problem {
	var min, max int64
	first := true
	for _, e := range members {
		if e.joining {
			continue
		}
		v := value(e)
		if first {
			min, max = v, v
			first = false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if first || max-min <= threshold {
		return nil
	}
	var laggards []string
	for _, e := range members {
		if !e.joining && max-value(e) > threshold {
			laggards = append(laggards, fmt.Sprintf("%s (member %d, %s %d)", e.addr, e.st.ID, what, value(e)))
		}
	}
	return []Problem{{
		Kind: kind, Nodes: laggards,
		Detail: fmt.Sprintf("%s spread %d (min %d, max %d) exceeds %d; lagging: %s",
			what, max-min, min, max, threshold, strings.Join(laggards, ", ")),
	}}
}

// diagnoseGroup applies the protocol rules to the members of one group.
func diagnoseGroup(gid uint32, members []entity, cfg Config) (problems []Problem) {
	for _, e := range members {
		if !e.st.Running {
			problems = append(problems, Problem{
				Kind: "left", Nodes: []string{e.addr},
				Detail: fmt.Sprintf("%s (member %d) no longer runs the protocol", e.addr, e.st.ID),
			})
		}
	}

	// Surface mid-join members as informational problems: visible in the
	// report and in watch mode, but never a failing exit code — a rolling
	// restart would otherwise flap the one-shot verdict on every member.
	for _, e := range members {
		if e.joining {
			problems = append(problems, Problem{
				Kind: "joining", Nodes: []string{e.addr}, Informational: true,
				Detail: fmt.Sprintf("%s (member %d) is state-transferring back into the group", e.addr, e.st.ID),
			})
		}
	}

	// View agreement: every running member must hold the same alive mask.
	// A mid-join member is excluded: its view is the sponsor's snapshot
	// until a decision admits it, and it does not yet appear alive in the
	// others' masks — both disagreements are the join in progress.
	masks := map[string][]string{}
	for _, e := range members {
		if e.st.Running && !e.joining {
			m := maskString(e.st.Alive)
			masks[m] = append(masks[m], e.addr)
		}
	}
	if len(masks) > 1 {
		keys := make([]string, 0, len(masks))
		for m := range masks {
			keys = append(keys, m)
		}
		slices.Sort(keys)
		var parts, nodes []string
		for _, m := range keys {
			slices.Sort(masks[m])
			parts = append(parts, fmt.Sprintf("%s held by %s", m, strings.Join(masks[m], ",")))
			nodes = append(nodes, masks[m]...)
		}
		problems = append(problems, Problem{
			Kind: "view-divergence", Nodes: nodes,
			Detail: "members disagree about who is alive: " + strings.Join(parts, "; "),
		})
	}

	// Skew rules: name the lagging members. Stability-frontier skew says
	// some members hold full-group decisions others never saw (a healed
	// split still reconciling); processed skew says some members are not
	// receiving the traffic at all. The latter is what an active partition
	// looks like from outside: stability halts group-wide (a full-group
	// decision needs reports from every believed-alive member), while the
	// majority side keeps processing and the cut-off member does not.
	problems = append(problems, skewProblem(members, cfg.FrontierSkew, "frontier-skew",
		"stability frontier", func(e entity) int64 { return stableSum(e.st) })...)
	problems = append(problems, skewProblem(members, cfg.FrontierSkew, "progress-skew",
		"processed count", func(e entity) int64 { return int64(e.st.Processed.Sum()) })...)

	for i := range problems {
		problems[i].Group = &gid
		problems[i].Detail = fmt.Sprintf("group %d: %s", gid, problems[i].Detail)
	}
	return problems
}

// diagnose applies the divergence rules to one round of probes: the
// node-level ones per node, the protocol ones per group in group order —
// a divergence confined to one group reads as that group's problem.
func diagnose(probes []NodeProbe, cfg Config) (problems []Problem, viewsAgree bool) {
	viewsAgree = true
	groups := map[uint32][]entity{}
	var gids []uint32
	for i := range probes {
		p := &probes[i]
		if !p.Reachable {
			problems = append(problems, Problem{
				Kind: "unreachable", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s: %s", p.Addr, p.Err),
			})
			continue
		}
		for g := range p.Status.Groups {
			e := entity{addr: p.Addr, st: &p.Status.Groups[g]}
			e.joining = e.st.Joining
			if p.Health != nil {
				for _, v := range p.Health.Groups {
					e.joining = e.joining || (v.Joining && v.Group == int(e.st.Group))
				}
			}
			if _, ok := groups[e.st.Group]; !ok {
				gids = append(gids, e.st.Group)
			}
			groups[e.st.Group] = append(groups[e.st.Group], e)
		}
	}
	slices.Sort(gids)
	for _, gid := range gids {
		for _, pr := range diagnoseGroup(gid, groups[gid], cfg) {
			viewsAgree = viewsAgree && pr.Kind != "view-divergence"
			problems = append(problems, pr)
		}
	}

	// Carry through each node's own verdict.
	for _, p := range probes {
		if p.Health != nil && !p.Health.Healthy {
			var rules []string
			for _, r := range p.Health.Reasons {
				rules = append(rules, fmt.Sprintf("group %d %s", r.Group, r.Rule))
			}
			problems = append(problems, Problem{
				Kind: "node-unhealthy", Nodes: []string{p.Addr},
				Detail: fmt.Sprintf("%s reports itself unhealthy: %s", p.Addr, strings.Join(rules, ", ")),
			})
		}
	}
	return problems, viewsAgree
}

// Collect probes every configured node once and diagnoses the result.
func Collect(ctx context.Context, cfg Config) Report {
	cfg = cfg.withDefaults()
	r := Report{Nodes: probe.Fanout(cfg.Nodes, func(_ int, addr string) NodeProbe {
		return probeNode(ctx, cfg, probe.NormalizeAddr(addr))
	})}
	r.Problems, r.ViewsAgree = diagnose(r.Nodes, cfg)
	r.Healthy = healthyProblems(r.Problems)
	first := true
	for _, p := range r.Nodes {
		if !p.Reachable {
			continue
		}
		for g := range p.Status.Groups {
			f := stableSum(&p.Status.Groups[g])
			if first {
				r.MinFrontier, r.MaxFrontier, first = f, f, false
			}
			r.MinFrontier = min(r.MinFrontier, f)
			r.MaxFrontier = max(r.MaxFrontier, f)
		}
	}
	return r
}

// stableSum is a member's stability frontier in one group: the sum of the
// clean vector of the freshest full-group decision it applied.
func stableSum(st *rt.Status) int64 { return int64(st.StableTo.Sum()) }

// healthyProblems reports whether the problem list carries any real
// divergence. Informational kinds (a member mid-join) never flip the
// verdict or the one-shot exit code.
func healthyProblems(problems []Problem) bool {
	for _, p := range problems {
		if !p.Informational {
			return false
		}
	}
	return true
}

// OneShot probes once and, if problems showed up and a grace period is
// configured, re-probes after it — transient divergence (a crash still
// propagating through attempts counters, a frontier catching up) clears
// itself; only problems whose (kind, group) was present in both rounds are
// reported.
// Informational problems are always carried through: they never triggered
// the re-probe and must not be able to suppress or cause a failure.
func OneShot(ctx context.Context, cfg Config) Report {
	first := Collect(ctx, cfg)
	if first.Healthy || cfg.Grace <= 0 {
		return first
	}
	select {
	case <-ctx.Done():
		return first
	case <-time.After(cfg.Grace):
	}
	second := Collect(ctx, cfg)
	seen := map[string]bool{}
	for _, p := range first.Problems {
		seen[p.key()] = true
	}
	persistent := second.Problems[:0]
	for _, p := range second.Problems {
		if p.Informational || seen[p.key()] {
			persistent = append(persistent, p)
		}
	}
	second.Problems = persistent
	second.Healthy = healthyProblems(second.Problems)
	return second
}

// key identifies what a problem is about across probe rounds: its kind and
// the group it was found in.
func (p Problem) key() string {
	if p.Group == nil {
		return p.Kind
	}
	return fmt.Sprintf("%s/%d", p.Kind, *p.Group)
}

// Summary renders one human-readable line per report, for watch mode.
func Summary(r Report) string {
	reachable := 0
	for _, p := range r.Nodes {
		if p.Reachable {
			reachable++
		}
	}
	verdict := "healthy"
	kinds := map[string]bool{}
	var order []string
	for _, p := range r.Problems {
		if !kinds[p.Kind] {
			kinds[p.Kind] = true
			order = append(order, p.Kind)
		}
	}
	if !r.Healthy {
		verdict = "UNHEALTHY [" + strings.Join(order, ", ") + "]"
	} else if len(order) > 0 {
		// Only informational kinds (e.g. a member mid-join): still healthy.
		verdict = "healthy [" + strings.Join(order, ", ") + "]"
	}
	return fmt.Sprintf("%s nodes=%d/%d views_agree=%v frontier=[%d..%d]",
		verdict, reachable, len(r.Nodes), r.ViewsAgree, r.MinFrontier, r.MaxFrontier)
}

// Watch collects at the given interval, writing one summary line per
// round, until ctx ends. It returns the last report.
func Watch(ctx context.Context, cfg Config, interval time.Duration, w io.Writer) Report {
	if interval <= 0 {
		interval = time.Second
	}
	var last Report
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r := Collect(ctx, cfg)
		if ctx.Err() != nil {
			// Cancelled mid-probe: the round is truncated, not evidence.
			return last
		}
		last = r
		fmt.Fprintln(w, Summary(last))
		for _, p := range last.Problems {
			fmt.Fprintf(w, "  %s: %s\n", p.Kind, p.Detail)
		}
		select {
		case <-ctx.Done():
			return last
		case <-t.C:
		}
	}
}
